package costmodel

// The naive idle-billing estimate: the loop over every gap that
// GapModel.IdleBilledPerGap's prefix sums replaced. It is the oracle
// the fast path is pinned to, bit for bit.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"kwo/internal/ml"
)

// idleBilledNaive bills min(gap, interval) for every fitted gap, in
// sorted order, and averages.
func idleBilledNaive(g *GapModel, autoSuspend time.Duration) float64 {
	if len(g.gaps) == 0 {
		return 0
	}
	limit := autoSuspend.Seconds()
	var total float64
	for _, gap := range g.gaps {
		if gap < limit {
			total += gap
		} else {
			total += limit
		}
	}
	return total / float64(len(g.gaps))
}

// TestIdleBilledMatchesNaive pins IdleBilledPerGap, and Mean, to the
// naive loops bit for bit over seeded gap sets with zeros, duplicates,
// fractional seconds and gaps equal to the interval. The intervals
// include 0, one below the smallest gap, ones equal to a gap, and one
// above the largest.
func TestIdleBilledMatchesNaive(t *testing.T) {
	check := func(t *testing.T, g *GapModel, limit time.Duration) {
		t.Helper()
		got, want := g.IdleBilledPerGap(limit), idleBilledNaive(g, limit)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%d gaps, interval %v: prefix sums %v, naive %v", g.N(), limit, got, want)
		}
	}
	t.Run("empty", func(t *testing.T) {
		g := FitGaps(nil)
		for _, limit := range []time.Duration{0, time.Second, time.Hour} {
			check(t, g, limit)
		}
		if g.Mean() != 0 {
			t.Fatalf("empty model mean = %v, want 0", g.Mean())
		}
	})
	rng := rand.New(rand.NewSource(18))
	for _, n := range []int{1, 2, 3, 10, 257, 4000} {
		for _, zeros := range []bool{false, true} {
			t.Run(fmt.Sprintf("%d/zeros=%v", n, zeros), func(t *testing.T) {
				durs := make([]time.Duration, n)
				for i := range durs {
					switch r := rng.Intn(10); {
					case zeros && (i == 0 || r == 0):
						durs[i] = 0
					case r == 1:
						durs[i] = 10 * time.Minute // the interval the benchmark warehouse uses
					case r == 2 && i > 0:
						durs[i] = durs[rng.Intn(i)]
					case r < 6:
						durs[i] = 1 + time.Duration(rng.Int63n(int64(10*time.Minute)))
					default:
						durs[i] = 1 + time.Duration(rng.Int63n(int64(6*time.Hour)))
					}
				}
				gaps := make([]float64, n)
				for i, d := range durs {
					gaps[i] = d.Seconds()
				}
				g := FitGaps(gaps)
				if math.Float64bits(g.Mean()) != math.Float64bits(ml.Mean(g.gaps)) {
					t.Fatalf("mean %v, naive %v", g.Mean(), ml.Mean(g.gaps))
				}
				minD, maxD := durs[0], durs[0]
				for _, d := range durs {
					minD, maxD = min(minD, d), max(maxD, d)
				}
				limits := []time.Duration{0, maxD + time.Second, 10 * time.Minute, time.Minute}
				if !zeros {
					limits = append(limits, minD/2)
				}
				for k := 0; k < 8; k++ {
					limits = append(limits, durs[rng.Intn(n)])
				}
				for _, limit := range limits {
					check(t, g, limit)
				}
			})
		}
	}
}
