package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs: the smallest sample with at least p% of all samples at or below
// it. xs is not modified. It returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// median is the nearest-rank 50th percentile: the middle sample of an
// odd count, the lower middle of an even one.
func median(xs []float64) float64 { return percentile(xs, 50) }

// rank is the 1-based nearest rank of the p-th percentile of n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n) / 100))
	if r < 1 {
		r = 1
	}
	return r
}

// beyond returns how many of n samples lie strictly beyond the
// nearest-rank p-th percentile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// minSamples is the smallest sample count that puts at least minTail
// samples beyond the p-th percentile.
func minSamples(p float64) int {
	n := 1
	for beyond(n, p) < minTail {
		n++
	}
	return n
}

// medianEach returns, for each position i, the median of rows[k][i]
// over the rows, or nil unless every row has the same length. Laps
// replay one seed, so the i-th step (or read) of every lap does the
// same work; the median over laps of its time is its typical time,
// which a burst of interference on fewer than half of the laps does not
// move, wherever in the lap the burst lands.
func medianEach(rows [][]float64) []float64 {
	if len(rows) == 0 {
		return nil
	}
	n := len(rows[0])
	for _, r := range rows {
		if len(r) != n {
			return nil
		}
	}
	out := make([]float64, n)
	col := make([]float64, len(rows))
	for i := range out {
		for k, r := range rows {
			col[k] = r[i]
		}
		out[i] = median(col)
	}
	return out
}

// sum adds up xs.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// sortedNames returns m's keys in order.
func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
