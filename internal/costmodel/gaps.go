package costmodel

import (
	"sort"
	"time"
)

// GapModel captures the distribution of idle gaps between query
// submissions on a warehouse (§5.2, "impact on query arrival times").
// The replay uses it to reason about idle-time billing, and the
// action-impact estimator uses it to predict what an auto-suspend
// change saves or costs. A model is immutable once fitted.
type GapModel struct {
	gaps []float64 // sorted, seconds
	// prefix[k] is gaps[0] + … + gaps[k-1], added in that order.
	prefix []float64
}

// FitGaps builds a model from observed inter-arrival gaps in seconds.
// Negative and NaN gaps are dropped.
func FitGaps(gaps []float64) *GapModel {
	g := &GapModel{}
	for _, x := range gaps {
		// NaN fails x >= 0 too; kept, it would sort first and poison
		// every prefix sum.
		if !(x >= 0) {
			continue
		}
		g.gaps = append(g.gaps, x)
	}
	sort.Float64s(g.gaps)
	g.prefix = make([]float64, len(g.gaps)+1)
	for k, x := range g.gaps {
		g.prefix[k+1] = g.prefix[k] + x
	}
	return g
}

// N returns the number of observed gaps.
func (g *GapModel) N() int { return len(g.gaps) }

// Mean returns the mean gap in seconds, 0 for a model with no gaps.
func (g *GapModel) Mean() float64 {
	if len(g.gaps) == 0 {
		return 0
	}
	return g.prefix[len(g.gaps)] / float64(len(g.gaps))
}

// IdleBilledPerGap returns the expected billed idle seconds per gap for
// a given auto-suspend interval: each gap bills min(gap, interval) of
// idle warehouse time before suspension kicks in. This encodes the
// paper's observation that "query gaps cannot be longer than the
// auto-suspend interval since the warehouse would have shut down".
//
// The gaps shorter than the interval are a prefix of the sorted gaps,
// so their sum is read from the prefix sums; each longer gap then adds
// the interval once. Those are the additions, in order, of billing
// min(gap, interval) gap by gap, so the result is bit-identical to it.
func (g *GapModel) IdleBilledPerGap(autoSuspend time.Duration) float64 {
	if len(g.gaps) == 0 {
		return 0
	}
	limit := autoSuspend.Seconds()
	k := sort.SearchFloat64s(g.gaps, limit)
	total := g.prefix[k]
	for range g.gaps[k:] {
		total += limit
	}
	return total / float64(len(g.gaps))
}

// SuspendFraction returns the fraction of gaps longer than the
// interval — i.e. how often the warehouse would suspend (and later
// resume cold) under that auto-suspend setting.
func (g *GapModel) SuspendFraction(autoSuspend time.Duration) float64 {
	if len(g.gaps) == 0 {
		return 0
	}
	limit := autoSuspend.Seconds()
	i := sort.SearchFloat64s(g.gaps, limit)
	return float64(len(g.gaps)-i) / float64(len(g.gaps))
}
