package telemetry

import (
	"math"
	"time"

	"kwo/internal/cdw"
)

// WindowStats summarizes warehouse activity over a time window. These
// are the KPIs the paper's dashboards show (spend, latency and queue
// percentiles, cost per query) and the raw material for the smart
// models' state features.
type WindowStats struct {
	From, To time.Time

	Queries    int
	QPH        float64 // queries per hour
	ColdReads  int
	Resumes    int
	BytesTotal int64

	AvgLatency time.Duration // queue + execution, as users experience it
	P50Latency time.Duration
	P95Latency time.Duration
	P99Latency time.Duration

	AvgQueue time.Duration
	P99Queue time.Duration

	AvgExec time.Duration

	DistinctTemplates int
	NewTemplates      int // templates not seen before the window

	AvgClusters float64 // mean cluster count observed at query start
	MaxClusters int
	AvgSize     float64 // mean size index weighted by query count
}

// Stats computes WindowStats for queries ending in [from, to).
//
// All additive fields come from prefix-aggregate differences (O(log N)
// regardless of window width); the single pass over the window itself
// only gathers percentile inputs and template identities, into scratch
// buffers reused across calls. A monitor tick therefore costs O(log N
// + W) with no steady-state allocation, where W is the window size —
// previously each tick scanned and sorted the whole log.
func (l *WarehouseLog) Stats(from, to time.Time) WindowStats {
	ws := WindowStats{From: from, To: to}
	if l == nil {
		return ws
	}
	l.ensureQueryIndexes()
	lo, hi := l.queryRange(from, to)
	n := hi - lo
	ws.Queries = n
	hours := to.Sub(from).Hours()
	if hours > 0 {
		ws.QPH = float64(n) / hours
	}
	if n == 0 {
		return ws
	}

	sum := l.agg[hi-1]
	if lo > 0 {
		sum = sum.sub(l.agg[lo-1])
	}
	ws.BytesTotal = sum.bytes
	ws.ColdReads = int(sum.cold)
	ws.Resumes = int(sum.resumed)
	ws.AvgLatency = sum.lat / time.Duration(n)
	ws.AvgQueue = sum.queue / time.Duration(n)
	ws.AvgExec = sum.exec / time.Duration(n)
	// Cluster and size sums are integers well under 2^53, so the float
	// averages are bit-identical to a sequential float accumulation.
	ws.AvgClusters = float64(sum.clusters) / float64(n)
	ws.AvgSize = float64(sum.size) / float64(n)

	l.latScratch = l.latScratch[:0]
	l.queueScratch = l.queueScratch[:0]
	if l.distinct == nil {
		l.distinct = make(map[uint64]struct{})
	}
	clear(l.distinct)
	for i := lo; i < hi; i++ {
		r := &l.Queries[i]
		l.latScratch = append(l.latScratch, r.TotalDuration())
		l.queueScratch = append(l.queueScratch, r.QueueDuration)
		if _, seen := l.distinct[r.TemplateHash]; !seen {
			l.distinct[r.TemplateHash] = struct{}{}
			// A template is new iff its earliest completion anywhere in
			// the log is not before the window start.
			if !l.firstEnd[r.TemplateHash].Before(from) {
				ws.NewTemplates++
			}
		}
		if r.Clusters > ws.MaxClusters {
			ws.MaxClusters = r.Clusters
		}
	}
	ws.DistinctTemplates = len(l.distinct)
	ws.P50Latency = percentileDur(l.latScratch, 0.50)
	ws.P95Latency = percentileDur(l.latScratch, 0.95)
	ws.P99Latency = percentileDur(l.latScratch, 0.99)
	ws.P99Queue = percentileDur(l.queueScratch, 0.99)
	return ws
}

// nearestRank maps a quantile p (0..1) over n values to a 0-based
// order-statistic index, clamped to the valid range.
func nearestRank(n int, p float64) int {
	rank := int(math.Ceil(p*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return rank
}

// percentileDur returns the p-quantile (0..1) using the nearest-rank
// method. The input is reordered in place (quickselect); callers pass
// scratch buffers.
func percentileDur(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	return quickselect(ds, nearestRank(len(ds), p))
}

// quickselect returns the k-th smallest element (0-based) of a,
// reordering a in place with zero allocation. Median-of-three
// pivoting, an insertion-sort fallback for small ranges and
// pathological pivot sequences; the returned value is the exact order
// statistic a full sort would produce.
func quickselect(a []time.Duration, k int) time.Duration {
	lo, hi := 0, len(a)-1
	for depth := 0; lo < hi; depth++ {
		if hi-lo < 12 || depth > 64 {
			insertionSort(a, lo, hi)
			return a[k]
		}
		p := partition(a, lo, hi)
		switch {
		case k == p:
			return a[k]
		case k < p:
			hi = p - 1
		default:
			lo = p + 1
		}
	}
	return a[k]
}

func insertionSort(a []time.Duration, lo, hi int) {
	for i := lo + 1; i <= hi; i++ {
		for j := i; j > lo && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// partition orders a[lo..hi] around a median-of-three pivot and returns
// the pivot's final index.
func partition(a []time.Duration, lo, hi int) int {
	mid := lo + (hi-lo)/2
	if a[mid] < a[lo] {
		a[mid], a[lo] = a[lo], a[mid]
	}
	if a[hi] < a[mid] {
		a[hi], a[mid] = a[mid], a[hi]
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
	}
	a[mid], a[hi] = a[hi], a[mid]
	pivot := a[hi]
	i := lo
	for j := lo; j < hi; j++ {
		if a[j] < pivot {
			a[i], a[j] = a[j], a[i]
			i++
		}
	}
	a[i], a[hi] = a[hi], a[i]
	return i
}

// LatencyObs is one (size, latency) observation for a template, the
// training rows for the cost model's latency-scaling regression (§5.2).
type LatencyObs struct {
	Size     cdw.Size
	ExecSecs float64
	Cold     bool
	At       time.Time
}

// TemplateObservations groups execution observations by template hash
// for queries ending in [from, to).
func (l *WarehouseLog) TemplateObservations(from, to time.Time) map[uint64][]LatencyObs {
	out := make(map[uint64][]LatencyObs)
	if l == nil {
		return out
	}
	for _, r := range l.QueriesBetweenView(from, to) {
		out[r.TemplateHash] = append(out[r.TemplateHash], LatencyObs{
			Size:     r.Size,
			ExecSecs: r.ExecDuration.Seconds(),
			Cold:     r.ColdRead,
			At:       r.EndTime,
		})
	}
	return out
}

// Gaps returns the idle gaps between consecutive query submissions in
// [from, to), in seconds — the raw data for the cost model's query-gap
// model (§5.2).
func (l *WarehouseLog) Gaps(from, to time.Time) []float64 {
	recs := l.SubmittedBetween(from, to)
	if len(recs) < 2 {
		return nil
	}
	gaps := make([]float64, 0, len(recs)-1)
	for i := 1; i < len(recs); i++ {
		gaps = append(gaps, recs[i].SubmitTime.Sub(recs[i-1].SubmitTime).Seconds())
	}
	return gaps
}
