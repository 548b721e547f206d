package main

import "testing"

func TestTailRule(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		beyond int
	}{
		{1000, 99, 10},
		{999, 99, 9},
		{1099, 99, 10},
		{1100, 99, 11},
		{20, 50, 10},
		{19, 50, 9},
		{0, 99, 0},
	}
	for _, c := range cases {
		if got := beyond(c.n, c.p); got != c.beyond {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.p, got, c.beyond)
		}
	}
	if got := minSamples(99); got != 1000 {
		t.Errorf("minSamples(99) = %d, want 1000", got)
	}
	if got := minSamples(50); got != 20 {
		t.Errorf("minSamples(50) = %d, want 20", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000 … 1: order must not matter
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 = %v, want 990", got)
	}
	if got := percentile(xs, 50); got != 500 {
		t.Errorf("p50 = %v, want 500", got)
	}
	if xs[0] != 1000 {
		t.Errorf("percentile reordered its input")
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("p99 of nothing = %v", got)
	}
}

func TestMedianEach(t *testing.T) {
	// Three laps of three steps; a stall hits a different step in two
	// of them and the typical times stay those of the quiet laps.
	got := medianEach([][]float64{{1, 9, 3}, {1, 2, 3}, {8, 2, 3}})
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("medianEach = %v, want [1 2 3]", got)
	}
	if got := medianEach([][]float64{{1, 2}, {1}}); got != nil {
		t.Errorf("ragged rows gave %v, want nil", got)
	}
	if got := medianEach(nil); got != nil {
		t.Errorf("no rows gave %v, want nil", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("median of 4 = %v, want the lower middle 2", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one = %v", got)
	}
}
