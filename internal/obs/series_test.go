package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

var t0 = time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)

func tick(i int) time.Time { return t0.Add(time.Duration(i) * time.Hour) }

func TestSeriesBudgetClamp(t *testing.T) {
	if s := NewSeries("x", AggSum, 0); s.budget != 4 {
		t.Fatalf("budget 0 clamped to %d, want 4", s.budget)
	}
	if s := NewSeries("x", AggSum, 7); s.budget != 8 {
		t.Fatalf("budget 7 rounded to %d, want 8", s.budget)
	}
}

func TestSeriesDownsamplePreservesSum(t *testing.T) {
	s := NewSeries("queries", AggSum, 8)
	var want float64
	for i := 0; i < 1000; i++ {
		v := float64(i%17 + 1)
		want += v
		s.Append(tick(i), v)
	}
	if s.Len() > 8 {
		t.Fatalf("Len=%d exceeds budget 8", s.Len())
	}
	// Stride stays a power of two.
	for st := s.Stride(); st > 1; st /= 2 {
		if st%2 != 0 {
			t.Fatalf("stride %d is not a power of two", s.Stride())
		}
	}
	got, ok := s.Total()
	if !ok || got != want {
		t.Fatalf("Total=%v ok=%v, want %v (sum survives halving exactly)", got, ok, want)
	}
}

func TestSeriesAggKinds(t *testing.T) {
	vals := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8}
	mk := func(agg Agg) *Series {
		s := NewSeries("x", agg, 4) // force several halvings
		for i, v := range vals {
			s.Append(tick(i), v)
		}
		return s
	}
	if got, _ := mk(AggMax).Total(); got != 9 {
		t.Fatalf("AggMax total = %v, want 9", got)
	}
	if got, _ := mk(AggLast).Total(); got != 8 {
		t.Fatalf("AggLast total = %v, want 8", got)
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	if got, _ := mk(AggSum).Total(); got != sum {
		t.Fatalf("AggSum total = %v, want %v", got, sum)
	}
	// Weighted mean survives halving exactly: every raw sample keeps
	// weight 1 through the merges.
	got, _ := mk(AggMean).Total()
	want := sum / float64(len(vals))
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("AggMean total = %v, want %v", got, want)
	}
}

func TestSeriesPartialBucketIsProvisional(t *testing.T) {
	s := NewSeries("x", AggSum, 8)
	for i := 0; i < 8; i++ { // fills the budget, so one halving: stride 2
		s.Append(tick(i), 1)
	}
	if s.Stride() != 2 {
		t.Fatalf("stride = %d, want 2", s.Stride())
	}
	n := s.Len()
	s.Append(tick(8), 1) // half a bucket
	if s.Len() != n+1 {
		t.Fatalf("partial bucket not rendered: Len=%d, want %d", s.Len(), n+1)
	}
	if s.Last() != 1 {
		t.Fatalf("provisional last = %v, want 1", s.Last())
	}
	s.Append(tick(9), 1) // completes the bucket
	if s.Len() != n+1 || s.Last() != 2 {
		t.Fatalf("completed bucket: Len=%d Last=%v, want %d and 2", s.Len(), s.Last(), n+1)
	}
}

func TestSeriesDumpDeterministic(t *testing.T) {
	mk := func() *Series {
		s := NewSeries("queries", AggSum, 8)
		for i := 0; i < 100; i++ {
			s.Append(tick(i), float64(i%7))
		}
		return s
	}
	a, _ := json.Marshal(mk().Dump())
	b, _ := json.Marshal(mk().Dump())
	if string(a) != string(b) {
		t.Fatalf("identical append sequences marshal differently:\n%s\n%s", a, b)
	}
	var d SeriesDump
	if err := json.Unmarshal(a, &d); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if d.Name != "queries" || d.Agg != "sum" || len(d.Points) == 0 {
		t.Fatalf("round-tripped dump lost fields: %+v", d)
	}
}

func TestBucketQuantile(t *testing.T) {
	bounds := []float64{1, 2, 4, 8}
	// 10 observations: 5 in (≤1], 3 in (1,2], 2 in (2,4].
	counts := []uint64{5, 3, 2, 0, 0}
	if got := bucketQuantile(0.5, bounds, counts); got != 1 {
		t.Fatalf("p50 = %v, want 1", got)
	}
	if got := bucketQuantile(0.99, bounds, counts); got != 4 {
		t.Fatalf("p99 = %v, want 4", got)
	}
	// All observations in the +Inf bucket clamp to the last finite bound.
	if got := bucketQuantile(0.99, bounds, []uint64{0, 0, 0, 0, 7}); got != 8 {
		t.Fatalf("+Inf clamp = %v, want 8", got)
	}
	if got := bucketQuantile(0.99, bounds, []uint64{0, 0, 0, 0, 0}); got != 0 {
		t.Fatalf("empty = %v, want 0", got)
	}
}

// TestRecorderModes drives a hub by hand and checks each sample mode.
func TestRecorderModes(t *testing.T) {
	now := t0
	h := NewHub(func() time.Time { return now })
	specs := []SampleSpec{
		{Name: "q", Family: MetricQueries, Mode: ModeDelta, TimeAgg: AggSum, CrossAgg: AggSum},
		{Name: "spend", Family: MetricInvoiceActual, Mode: ModeValue, TimeAgg: AggLast, CrossAgg: AggSum},
		{Name: "p99", Family: MetricQueryLatency, Mode: ModeQuantile, Q: 0.99, TimeAgg: AggMax, CrossAgg: AggMax},
		{Name: "aband", Family: MetricActionFailures, Mode: ModeDelta,
			Filter:  &LabelFilter{Label: "kind", Values: []string{"exhausted", "permanent"}},
			TimeAgg: AggSum, CrossAgg: AggSum},
	}
	rec := NewRecorder(h, specs, 16)

	h.Queries.With("WH").Add(10)
	h.InvoiceActual.With("WH").Add(2.5)
	for i := 0; i < 50; i++ {
		h.QueryLatency.With("WH").Observe(0.07)
	}
	h.QueryLatency.With("WH").Observe(5)
	h.ActionFailures.With("WH", "transient").Inc() // filtered out
	h.ActionFailures.With("WH", "exhausted").Inc()

	v1 := rec.Sample(tick(1))
	if v1[0] != 10 {
		t.Fatalf("delta sample 1 = %v, want 10", v1[0])
	}
	if v1[1] != 2.5 {
		t.Fatalf("value sample 1 = %v, want 2.5", v1[1])
	}
	// 51 observations: the p99 target (rank 51) is the single 5s
	// outlier, reported as its bucket's upper bound — conservative.
	if v1[2] < 5 {
		t.Fatalf("quantile sample 1 = %v, want >= 5 (conservative bound)", v1[2])
	}
	if v1[3] != 1 {
		t.Fatalf("filtered delta sample 1 = %v, want 1 (transient excluded)", v1[3])
	}

	// No activity: deltas drop to zero, levels hold.
	v2 := rec.Sample(tick(2))
	if v2[0] != 0 || v2[2] != 0 || v2[3] != 0 {
		t.Fatalf("idle tick deltas = %v, want zeros at 0,2,3", v2)
	}
	if v2[1] != 2.5 {
		t.Fatalf("idle tick level = %v, want 2.5", v2[1])
	}

	// The recorder mirrors latest value and point count onto gauges.
	if got := h.SeriesLast.With("spend").Value(); got != 2.5 {
		t.Fatalf("kwo_series_last{series=spend} = %v, want 2.5", got)
	}
	if got := h.SeriesPoints.With("q").Value(); got != 2 {
		t.Fatalf("kwo_series_points{series=q} = %v, want 2", got)
	}
	if rec.Series("q").Len() != 2 || rec.Series("nope") != nil {
		t.Fatalf("Series lookup broken")
	}
}

// TestSeriesGaugesRoundTripExposition checks the new gauge families
// survive the text exposition and the strict parser — the ParseText
// round-trip the CI scrape depends on.
func TestSeriesGaugesRoundTripExposition(t *testing.T) {
	now := t0
	h := NewHub(func() time.Time { return now })
	rec := NewRecorder(h, FleetSpecs(), 16)
	h.Queries.With("WH").Add(3)
	rec.Sample(tick(1))
	PublishSLO(h, Evaluate(SLOConfig{}.Objectives(), rec.Series))

	var b strings.Builder
	if err := h.Registry.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	parsed, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}
	for _, fam := range []string{MetricSeriesLast, MetricSeriesPoints, MetricSLOBurn, MetricSLOPass} {
		if !parsed.Has(fam) {
			t.Fatalf("family %s missing from exposition", fam)
		}
	}
	if !parsed.HasSeriesWithLabel(MetricSeriesLast, "series", SeriesQueries) {
		t.Fatalf("kwo_series_last{series=%q} missing", SeriesQueries)
	}
	if !parsed.HasSeriesWithLabel(MetricSLOPass, "objective", ObjectiveSavingsFloor) {
		t.Fatalf("kwo_slo_pass{objective=%q} missing", ObjectiveSavingsFloor)
	}
	if got := parsed.Sum(MetricSeriesLast); got != 3 {
		t.Fatalf("summed kwo_series_last = %v, want 3 (queries delta only)", got)
	}
}

// TestSeriesStateCoversEveryField: a checkpoint digest of a series is
// only as good as AppendState's coverage. Identically built series must
// append identical bytes, and changing any one piece of internal state
// — including the pending bucket and the fold counts that do not show
// in Points — must change them.
func TestSeriesStateCoversEveryField(t *testing.T) {
	build := func() *Series {
		s := NewSeries("x", AggMean, 8)
		for i := 0; i < 11; i++ { // one halving, then a pending bucket
			s.Append(tick(i), float64(i%5+1))
		}
		return s
	}
	ref := string(build().AppendState(nil))
	if got := string(build().AppendState(nil)); got != ref {
		t.Fatal("identically built series append different state")
	}
	// The rendered points are derived state: a series a read rendered
	// appends the same state as one never read.
	read := build()
	var c SeriesCopy
	c.Add(1, read)
	c.Render()
	c.Keep()
	if read.json == nil || read.json.n == 0 {
		t.Fatal("the copy did not render the series")
	}
	if got := string(read.AppendState(nil)); got != ref {
		t.Error("rendering a series for a read changes its state")
	}
	if s := build(); s.pend.n == 0 || s.stride < 2 {
		t.Fatalf("fixture lost its shape: stride %d, pending %d", s.stride, s.pend.n)
	}
	for _, c := range []struct {
		what   string
		mutate func(*Series)
	}{
		{"name", func(s *Series) { s.name = "y" }},
		{"agg", func(s *Series) { s.agg = AggSum }},
		{"budget", func(s *Series) { s.budget += 2 }},
		{"stride", func(s *Series) { s.stride *= 2 }},
		{"point time", func(s *Series) { s.pts[1].t = s.pts[1].t.Add(time.Nanosecond) }},
		{"point value", func(s *Series) { s.pts[1].v++ }},
		{"point fold count", func(s *Series) { s.pts[1].n++ }},
		{"point count", func(s *Series) { s.pts = s.pts[:len(s.pts)-1] }},
		{"pending time", func(s *Series) { s.pend.t = s.pend.t.Add(time.Nanosecond) }},
		{"pending value", func(s *Series) { s.pend.v++ }},
		{"pending fold count", func(s *Series) { s.pend.n++ }},
		{"no pending bucket", func(s *Series) { s.pend = point{} }},
	} {
		s := build()
		c.mutate(s)
		if string(s.AppendState(nil)) == ref {
			t.Errorf("%s change does not show in the series state", c.what)
		}
	}
}

// TestRecorderStateCoversBaselines extends the coverage property to the
// Recorder: besides its series, the previous-tick counter values and
// histogram buckets decide the next delta and quantile samples, so they
// must show in the state too.
func TestRecorderStateCoversBaselines(t *testing.T) {
	build := func() *Recorder {
		now := t0
		h := NewHub(func() time.Time { return now })
		rec := NewRecorder(h, FleetSpecs(), 16)
		for i := 0; i < 5; i++ {
			h.Queries.With("WH").Add(float64(10 + i))
			for j := 0; j < 20; j++ {
				h.QueryLatency.With("WH").Observe(0.05 * float64(i+1))
			}
			rec.Sample(tick(i))
		}
		return rec
	}
	ref := string(build().AppendState(nil))
	if got := string(build().AppendState(nil)); got != ref {
		t.Fatal("identically driven recorders append different state")
	}
	delta, quant := -1, -1
	for i, sp := range FleetSpecs() {
		switch {
		case sp.Mode == ModeDelta && delta < 0:
			delta = i
		case sp.Mode == ModeQuantile && quant < 0:
			quant = i
		}
	}
	if delta < 0 || quant < 0 {
		t.Fatal("FleetSpecs has no delta or no quantile spec")
	}
	for _, c := range []struct {
		what   string
		mutate func(*Recorder)
	}{
		{"series", func(r *Recorder) { r.series[0].pts[0].v++ }},
		{"previous counter", func(r *Recorder) { r.prev[delta]++ }},
		{"previous histogram", func(r *Recorder) { r.prevHist[quant][0]++ }},
		{"missing histogram baseline", func(r *Recorder) { r.prevHist[quant] = nil }},
	} {
		r := build()
		c.mutate(r)
		if string(r.AppendState(nil)) == ref {
			t.Errorf("%s change does not show in the recorder state", c.what)
		}
	}
}
