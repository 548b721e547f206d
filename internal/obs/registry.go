// Package obs is KWO's zero-dependency observability layer: a metrics
// registry (counters, gauges, fixed-bucket histograms), a ring-buffered
// structured event bus that can write every event's JSON line to an
// io.Writer, and an ops HTTP handler serving Prometheus text
// exposition, recent events, and pprof.
//
// Everything in this package is a pure observer of the simulation: it
// draws no randomness, schedules nothing that mutates warehouse state,
// and takes every timestamp from the injected clock (the simulation
// scheduler), never the wall clock. Instrumented runs are therefore
// byte-identical to uninstrumented ones — enforced by the golden-trace
// test and the simtest checkObsConsistency invariant.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// MetricType distinguishes the three instrument families.
type MetricType int

const (
	TypeCounter MetricType = iota
	TypeGauge
	TypeHistogram
)

// String returns the Prometheus TYPE keyword.
func (t MetricType) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	case TypeHistogram:
		return "histogram"
	}
	return "untyped"
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. The simulation itself is single-threaded, but the
// ops endpoint reads concurrently from HTTP goroutines, so every
// mutation and read takes the registry lock.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

type family struct {
	name    string
	help    string
	typ     MetricType
	labels  []string
	buckets []float64 // histograms only; upper bounds, +Inf implicit
	series  map[string]*series
	order   []string // series keys in first-use order
	// text is the family's label text for scrapes, built by the first
	// scrape that needs it (see familyText); the simulation never does.
	text *familyText
}

// series is one (family, label-values) sample set.
type series struct {
	labelValues []string
	val         float64  // counter / gauge
	counts      []uint64 // histogram: per-bucket cumulative at render, stored non-cumulative
	sum         float64
	count       uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help string, typ MetricType, buckets []float64, labels ...string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ {
			panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", name, typ, f.typ))
		}
		if len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered with labels %v (was %v)", name, labels, f.labels))
		}
		return f
	}
	f := &family{
		name:    name,
		help:    help,
		typ:     typ,
		labels:  append([]string(nil), labels...),
		buckets: append([]float64(nil), buckets...),
		series:  make(map[string]*series),
	}
	r.families[name] = f
	return f
}

func (f *family) get(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	s, ok := f.series[key]
	if !ok {
		s = &series{labelValues: append([]string(nil), values...)}
		if f.typ == TypeHistogram {
			s.counts = make([]uint64, len(f.buckets)+1)
		}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// Counter is a monotonically increasing value.
type Counter struct {
	r *Registry
	s *series
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v; v must be non-negative.
func (c *Counter) Add(v float64) {
	if c == nil {
		return
	}
	c.r.mu.Lock()
	c.s.val += v
	c.r.mu.Unlock()
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	c.r.mu.Lock()
	defer c.r.mu.Unlock()
	return c.s.val
}

// Gauge is a value that can go up and down.
type Gauge struct {
	r *Registry
	s *series
}

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.r.mu.Lock()
	g.s.val = v
	g.r.mu.Unlock()
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	g.r.mu.Lock()
	defer g.r.mu.Unlock()
	return g.s.val
}

// Histogram accumulates observations into fixed buckets.
type Histogram struct {
	r *Registry
	f *family
	s *series
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.r.mu.Lock()
	idx := sort.SearchFloat64s(h.f.buckets, v) // first bucket with upper bound >= v
	h.s.counts[idx]++
	h.s.sum += v
	h.s.count++
	h.r.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.r.mu.Lock()
	defer h.r.mu.Unlock()
	return h.s.count
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct {
	r *Registry
	f *family
}

// With returns the counter for the given label values, creating it on
// first use.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	v.r.mu.Lock()
	defer v.r.mu.Unlock()
	return &Counter{r: v.r, s: v.f.get(values)}
}

// GaugeVec is a gauge family partitioned by label values.
type GaugeVec struct {
	r *Registry
	f *family
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	v.r.mu.Lock()
	defer v.r.mu.Unlock()
	return &Gauge{r: v.r, s: v.f.get(values)}
}

// HistogramVec is a histogram family partitioned by label values.
type HistogramVec struct {
	r *Registry
	f *family
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	v.r.mu.Lock()
	defer v.r.mu.Unlock()
	return &Histogram{r: v.r, f: v.f, s: v.f.get(values)}
}

// NewCounterVec registers (or finds) a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r: r, f: r.family(name, help, TypeCounter, nil, labels...)}
}

// NewGaugeVec registers (or finds) a labeled gauge family.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r: r, f: r.family(name, help, TypeGauge, nil, labels...)}
}

// NewHistogramVec registers (or finds) a labeled histogram family with
// the given bucket upper bounds (ascending; +Inf is implicit).
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r: r, f: r.family(name, help, TypeHistogram, buckets, labels...)}
}

// ExponentialBuckets returns n bucket upper bounds starting at start,
// each factor times the previous.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// CounterSum returns the sum across all series of a counter (or gauge)
// family, or 0 if the family is unknown.
func (r *Registry) CounterSum(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		return 0
	}
	var sum float64
	for _, s := range f.series {
		sum += s.val
	}
	return sum
}

// Sample is one rendered series of a family.
type Sample struct {
	LabelValues []string
	Value       float64 // counter/gauge value, histogram count
	Sum         float64 // histogram only
}

// FamilySnapshot is a point-in-time copy of a metric family.
type FamilySnapshot struct {
	Name    string
	Help    string
	Type    MetricType
	Labels  []string
	Samples []Sample
}

// Snapshot copies every family, samples sorted by label values, for
// dashboards and tests.
func (r *Registry) Snapshot() []FamilySnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]FamilySnapshot, 0, len(names))
	for _, n := range names {
		f := r.families[n]
		fs := FamilySnapshot{Name: f.name, Help: f.help, Type: f.typ, Labels: append([]string(nil), f.labels...)}
		keys := append([]string(nil), f.order...)
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			smp := Sample{LabelValues: append([]string(nil), s.labelValues...)}
			if f.typ == TypeHistogram {
				smp.Value = float64(s.count)
				smp.Sum = s.sum
			} else {
				smp.Value = s.val
			}
			fs.Samples = append(fs.Samples, smp)
		}
		out = append(out, fs)
	}
	return out
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4): the merged renderer over this one registry
// with no extra label. Families and series are sorted, so output is
// deterministic for a given registry state. Each family is snapshotted
// under its own short lock, so a scrape concurrent with updates may
// read different families at different instants.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return WriteMergedPrometheus(w, "", []LabeledRegistry{{Registry: r}})
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
