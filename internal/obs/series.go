package obs

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// Agg is how a Series combines values — both when the downsampler folds
// two adjacent points into one and when Total summarizes the whole
// series for SLO evaluation.
type Agg int

const (
	// AggLast keeps the later value (level metrics sampled as-of the
	// epoch boundary: spend so far, baseline gauges).
	AggLast Agg = iota
	// AggSum adds values (per-epoch deltas: queries, ticks, attempts).
	AggSum
	// AggMax keeps the larger value (worst-case metrics: p99).
	AggMax
	// AggMean keeps the count-weighted mean (ratio-like levels: the
	// degraded indicator averaged over time).
	AggMean
)

// String returns the wire name used in SeriesDump.
func (a Agg) String() string {
	switch a {
	case AggSum:
		return "sum"
	case AggMax:
		return "max"
	case AggMean:
		return "mean"
	}
	return "last"
}

// point is one retained bucket: the bucket-ending timestamp, the
// aggregated value, and how many raw samples were folded in (the weight
// AggMean needs to stay exact through repeated halving).
type point struct {
	t time.Time
	v float64
	n int
}

// combine folds b (weight nb) into a (weight na) under agg.
func combine(agg Agg, a, b float64, na, nb int) float64 {
	switch agg {
	case AggSum:
		return a + b
	case AggMax:
		if a > b {
			return a
		}
		return b
	case AggMean:
		return (a*float64(na) + b*float64(nb)) / float64(na+nb)
	}
	return b // AggLast
}

// Point is one rendered sample of a series.
type Point struct {
	T time.Time
	V float64
}

// Series is a fixed-capacity time series: appends are O(1), memory is
// bounded by the point budget, and when the budget fills the series
// halves itself by merging adjacent pairs under its Agg — the stride
// (raw samples per retained point) doubles, so a series always covers
// its full history at the finest resolution the budget allows.
//
// Everything is deterministic: retained points are a pure function of
// the append sequence, with no wall clock and no randomness. The fleet
// relies on this for byte-identical rollups across worker counts.
type Series struct {
	name   string
	agg    Agg
	budget int
	stride int // raw samples folded into one retained point
	pts    []point
	pend   point // partial bucket accumulating toward the next point
}

// NewSeries builds an empty series. budget is the maximum number of
// retained points; it is clamped to at least 4 and rounded up to even
// so halving is exact.
func NewSeries(name string, agg Agg, budget int) *Series {
	if budget < 4 {
		budget = 4
	}
	if budget%2 == 1 {
		budget++
	}
	return &Series{name: name, agg: agg, budget: budget, stride: 1}
}

// Append records one raw sample at time t. Samples must arrive in
// non-decreasing time order (the fleet appends once per epoch boundary).
func (s *Series) Append(t time.Time, v float64) {
	if s.pend.n == 0 {
		s.pend = point{t: t, v: v, n: 1}
	} else {
		s.pend.t = t
		s.pend.v = combine(s.agg, s.pend.v, v, s.pend.n, 1)
		s.pend.n++
	}
	if s.pend.n < s.stride {
		return
	}
	s.pts = append(s.pts, s.pend)
	s.pend = point{}
	if len(s.pts) >= s.budget {
		s.halve()
	}
}

// halve merges adjacent point pairs, doubling the stride. Called only
// when len(pts) == budget, which is even, so no point is orphaned.
func (s *Series) halve() {
	half := len(s.pts) / 2
	for i := 0; i < half; i++ {
		a, b := s.pts[2*i], s.pts[2*i+1]
		s.pts[i] = point{t: b.t, v: combine(s.agg, a.v, b.v, a.n, b.n), n: a.n + b.n}
	}
	s.pts = s.pts[:half]
	s.stride *= 2
}

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// Agg returns the series' aggregation kind.
func (s *Series) Agg() Agg { return s.agg }

// Stride returns how many raw samples each retained point spans (the
// partial last point may span fewer).
func (s *Series) Stride() int { return s.stride }

// Len returns the number of rendered points, including the provisional
// partial bucket.
func (s *Series) Len() int {
	n := len(s.pts)
	if s.pend.n > 0 {
		n++
	}
	return n
}

// Points renders the retained points plus, if present, the provisional
// partial bucket as the last point.
func (s *Series) Points() []Point {
	out := make([]Point, 0, len(s.pts)+1)
	for _, p := range s.pts {
		out = append(out, Point{T: p.t, V: p.v})
	}
	if s.pend.n > 0 {
		out = append(out, Point{T: s.pend.t, V: s.pend.v})
	}
	return out
}

// Last returns the most recent rendered value (0 if empty).
func (s *Series) Last() float64 {
	if s.pend.n > 0 {
		return s.pend.v
	}
	if len(s.pts) == 0 {
		return 0
	}
	return s.pts[len(s.pts)-1].v
}

// Total summarizes the whole series under its Agg — the scalar SLO
// objectives evaluate: sum of all samples for AggSum, latest value for
// AggLast, maximum for AggMax, sample-weighted mean for AggMean. ok is
// false when the series has no data.
func (s *Series) Total() (v float64, ok bool) {
	if len(s.pts) == 0 && s.pend.n == 0 {
		return 0, false
	}
	all := s.pts
	if s.pend.n > 0 {
		all = append(append([]point(nil), s.pts...), s.pend)
	}
	switch s.agg {
	case AggSum:
		for _, p := range all {
			v += p.v
		}
	case AggMax:
		v = all[0].v
		for _, p := range all[1:] {
			if p.v > v {
				v = p.v
			}
		}
	case AggMean:
		var wsum float64
		var n int
		for _, p := range all {
			wsum += p.v * float64(p.n)
			n += p.n
		}
		v = wsum / float64(n)
	default: // AggLast
		v = all[len(all)-1].v
	}
	return v, true
}

// SeriesDump is the compact deterministic JSON encoding of a series:
// points are [unix_seconds, value] pairs. encoding/json renders floats
// with strconv's shortest round-trip form, so two identical series
// always marshal to identical bytes.
type SeriesDump struct {
	Name   string       `json:"name"`
	Agg    string       `json:"agg"`
	Stride int          `json:"stride"`
	Points [][2]float64 `json:"points"`
}

// Dump renders the series for JSON transport.
func (s *Series) Dump() SeriesDump {
	pts := s.Points()
	d := SeriesDump{Name: s.name, Agg: s.agg.String(), Stride: s.stride,
		Points: make([][2]float64, 0, len(pts))}
	for _, p := range pts {
		d.Points = append(d.Points, [2]float64{float64(p.T.Unix()), p.V})
	}
	return d
}

// SampleMode says how a Recorder turns a registry family into one
// scalar per sample tick.
type SampleMode int

const (
	// ModeValue samples the family's current summed value (level).
	ModeValue SampleMode = iota
	// ModeDelta samples the increase since the previous tick (rate).
	ModeDelta
	// ModeQuantile estimates a quantile from the histogram bucket
	// counts accumulated since the previous tick.
	ModeQuantile
)

// LabelFilter restricts a sample to series whose value of Label is in
// Values. A nil filter matches every series of the family.
type LabelFilter struct {
	Label  string
	Values []string
}

// SampleSpec declares one recorded series: which registry family to
// sample, how to reduce it to a scalar each tick (Mode/Q/Filter), how
// the Series downsamples over time (TimeAgg), and how the fleet folds
// the per-tenant scalars into the fleet-wide series (CrossAgg).
type SampleSpec struct {
	// Name is the recorded series name (also the `series` label on the
	// kwo_series_* gauges).
	Name string
	// Family is the registry metric family to sample.
	Family string
	// Mode reduces the family to one scalar per tick.
	Mode SampleMode
	// Q is the quantile for ModeQuantile (e.g. 0.99).
	Q float64
	// Filter optionally restricts which series of the family count.
	Filter *LabelFilter
	// TimeAgg is the Series' own downsampling aggregation.
	TimeAgg Agg
	// CrossAgg is how the fleet combines tenant values at one tick.
	CrossAgg Agg
}

// Recorder samples a fixed set of registry families into bounded
// Series on demand — the fleet calls Sample once per epoch boundary on
// the simulation clock. It keeps the previous tick's counter values and
// histogram buckets so delta and quantile modes are per-interval, and
// mirrors each series' latest value and point count onto the hub's
// kwo_series_last / kwo_series_points gauges.
//
// A Recorder is not self-locking: the fleet samples each tenant from at
// most one goroutine at a time (epoch barriers order the handoffs),
// matching the rest of the per-tenant stack.
type Recorder struct {
	hub      *Hub
	specs    []SampleSpec
	series   []*Series
	prev     []float64
	prevHist [][]uint64
	gLast    []*Gauge
	gPts     []*Gauge
}

// NewRecorder builds a recorder over the hub's registry. Registering
// primes one kwo_series_last / kwo_series_points gauge per spec, so the
// recorded-series catalog is visible on /metrics from the first scrape.
func NewRecorder(h *Hub, specs []SampleSpec, budget int) *Recorder {
	rec := &Recorder{
		hub:      h,
		specs:    append([]SampleSpec(nil), specs...),
		series:   make([]*Series, len(specs)),
		prev:     make([]float64, len(specs)),
		prevHist: make([][]uint64, len(specs)),
		gLast:    make([]*Gauge, len(specs)),
		gPts:     make([]*Gauge, len(specs)),
	}
	for i, sp := range rec.specs {
		rec.series[i] = NewSeries(sp.Name, sp.TimeAgg, budget)
		rec.gLast[i] = h.SeriesLast.With(sp.Name)
		rec.gPts[i] = h.SeriesPoints.With(sp.Name)
	}
	return rec
}

// Sample takes one tick at time t: every spec is reduced to a scalar,
// appended to its series, and returned in spec order (the fleet feeds
// these into its cross-tenant aggregate series).
func (rec *Recorder) Sample(t time.Time) []float64 {
	out := make([]float64, len(rec.specs))
	for i, sp := range rec.specs {
		var v float64
		switch sp.Mode {
		case ModeDelta:
			cur := rec.hub.Registry.familyValue(sp.Family, sp.Filter)
			v = cur - rec.prev[i]
			rec.prev[i] = cur
		case ModeQuantile:
			bounds, counts, ok := rec.hub.Registry.familyBuckets(sp.Family, sp.Filter)
			if ok {
				delta := bucketDelta(counts, rec.prevHist[i])
				v = bucketQuantile(sp.Q, bounds, delta)
				rec.prevHist[i] = counts
			}
		default: // ModeValue
			v = rec.hub.Registry.familyValue(sp.Family, sp.Filter)
		}
		rec.series[i].Append(t, v)
		out[i] = v
		rec.gLast[i].Set(v)
		rec.gPts[i].Set(float64(rec.series[i].Len()))
	}
	return out
}

// Series returns the recorded series named name, or nil.
func (rec *Recorder) Series(name string) *Series {
	for i, sp := range rec.specs {
		if sp.Name == name {
			return rec.series[i]
		}
	}
	return nil
}

// Dump renders every recorded series in spec order.
func (rec *Recorder) Dump() []SeriesDump {
	out := make([]SeriesDump, len(rec.series))
	for i, s := range rec.series {
		out[i] = s.Dump()
	}
	return out
}

// Specs returns the recorder's sample specs (callers must not mutate).
func (rec *Recorder) Specs() []SampleSpec { return rec.specs }

// familyValue sums the current value of every matching series of a
// family (histogram series contribute their observation count). Unknown
// family or filter label → 0. Iteration follows first-use order, which
// is deterministic per run, so float accumulation order is stable.
func (r *Registry) familyValue(name string, filt *LabelFilter) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		return 0
	}
	fi := filterIndex(f, filt)
	if filt != nil && fi < 0 {
		return 0
	}
	var sum float64
	for _, key := range f.order {
		s := f.series[key]
		if fi >= 0 && !filterMatch(filt, s.labelValues[fi]) {
			continue
		}
		if f.typ == TypeHistogram {
			sum += float64(s.count)
		} else {
			sum += s.val
		}
	}
	return sum
}

// familyBuckets sums the per-bucket counts of every matching series of
// a histogram family. ok is false when the family is unknown, not a
// histogram, or the filter label does not exist.
func (r *Registry) familyBuckets(name string, filt *LabelFilter) (bounds []float64, counts []uint64, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, okF := r.families[name]
	if !okF || f.typ != TypeHistogram {
		return nil, nil, false
	}
	fi := filterIndex(f, filt)
	if filt != nil && fi < 0 {
		return nil, nil, false
	}
	counts = make([]uint64, len(f.buckets)+1)
	for _, key := range f.order {
		s := f.series[key]
		if fi >= 0 && !filterMatch(filt, s.labelValues[fi]) {
			continue
		}
		for i, c := range s.counts {
			counts[i] += c
		}
	}
	return f.buckets, counts, true
}

// filterIndex returns the label index the filter applies to, -1 when
// there is no filter or the family lacks the label.
func filterIndex(f *family, filt *LabelFilter) int {
	if filt == nil {
		return -1
	}
	for i, l := range f.labels {
		if l == filt.Label {
			return i
		}
	}
	return -1
}

func filterMatch(filt *LabelFilter, value string) bool {
	for _, v := range filt.Values {
		if v == value {
			return true
		}
	}
	return false
}

// bucketDelta subtracts the previous tick's bucket counts (nil or
// shorter prev contributes zero).
func bucketDelta(cur, prev []uint64) []uint64 {
	out := make([]uint64, len(cur))
	for i, c := range cur {
		var p uint64
		if i < len(prev) {
			p = prev[i]
		}
		if c > p {
			out[i] = c - p
		}
	}
	return out
}

// bucketQuantile estimates quantile q from non-cumulative bucket counts
// (len(bounds)+1 buckets, last is +Inf). It returns the upper bound of
// the bucket holding the q-th observation — a conservative (upper)
// estimate, with the +Inf bucket clamped to the largest finite bound.
// Zero observations → 0.
func bucketQuantile(q float64, bounds []float64, counts []uint64) float64 {
	if len(bounds) == 0 {
		return 0
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if float64(target) < q*float64(total) {
		target++
	}
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= target {
			if i < len(bounds) {
				return bounds[i]
			}
			return bounds[len(bounds)-1] // +Inf bucket: clamp to last finite bound
		}
	}
	return bounds[len(bounds)-1]
}

// AppendState appends the series' full internal state to b in a fixed
// binary layout: name, agg, budget, stride, every retained point with
// its fold count, and the pending bucket. Timestamps are UnixNano, so
// two series append the same bytes exactly when they render alike now
// and keep doing so under further appends — the property a checkpoint
// digest of the series needs.
func (s *Series) AppendState(b []byte) []byte {
	b = append(append(b, s.name...), 0)
	for _, v := range []int{int(s.agg), s.budget, s.stride, len(s.pts)} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	for _, p := range s.pts {
		b = appendPoint(b, p)
	}
	return appendPoint(b, s.pend)
}

func appendPoint(b []byte, p point) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(p.t.UnixNano()))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.v))
	return binary.LittleEndian.AppendUint64(b, uint64(p.n))
}

// AppendState appends the recorder's mutable state to b: every series'
// state plus the previous-tick counter values and histogram buckets
// that make delta and quantile samples per-interval. Recorders over the
// same specs append the same bytes exactly when their series agree and
// their next samples over the same registry would too.
func (rec *Recorder) AppendState(b []byte) []byte {
	for i, s := range rec.series {
		b = s.AppendState(b)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(rec.prev[i]))
		b = binary.LittleEndian.AppendUint64(b, uint64(len(rec.prevHist[i])))
		for _, c := range rec.prevHist[i] {
			b = binary.LittleEndian.AppendUint64(b, c)
		}
	}
	return b
}

// String renders a compact human summary, for logs and tests.
func (s *Series) String() string {
	return fmt.Sprintf("%s[%s stride=%d pts=%d]", s.name, s.agg, s.stride, s.Len())
}
