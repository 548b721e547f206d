package obs

import (
	"encoding/json"
	"errors"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func fixedClock() func() time.Time {
	t0 := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	n := 0
	return func() time.Time {
		n++
		return t0.Add(time.Duration(n) * time.Second)
	}
}

func TestRegistryCountersGaugesHistograms(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounterVec("c_total", "a counter").With()
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Fatalf("counter = %g, want 3", c.Value())
	}
	g := r.NewGaugeVec("g", "a gauge").With()
	g.Set(7)
	g.Set(-1)
	if g.Value() != -1 {
		t.Fatalf("gauge = %g, want -1", g.Value())
	}
	cv := r.NewCounterVec("cv_total", "labelled", "warehouse", "kind")
	cv.With("W", "x").Inc()
	cv.With("W", "y").Add(4)
	if got := r.CounterSum("cv_total"); got != 5 {
		t.Fatalf("CounterSum = %g, want 5", got)
	}
	hv := r.NewHistogramVec("h_seconds", "latency", ExponentialBuckets(1, 2, 4), "warehouse")
	h := hv.With("W")
	for _, v := range []float64{0.5, 1, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("histogram count = %d, want 4", h.Count())
	}

	// Re-registration with identical shape is idempotent...
	c2 := r.NewCounterVec("c_total", "a counter").With()
	c2.Inc()
	if c.Value() != 4 {
		t.Fatalf("re-registered counter is not the same series: %g", c.Value())
	}
	// ...but a type mismatch panics: silent shape drift would corrupt
	// the exposition.
	defer func() {
		if recover() == nil {
			t.Fatal("registering c_total as a gauge did not panic")
		}
	}()
	r.NewGaugeVec("c_total", "now a gauge").With()
}

func TestPrometheusOutputParses(t *testing.T) {
	hub := NewHub(fixedClock())
	hub.DecisionTicks.With("W").Inc()
	hub.QueryLatency.With("W").Observe(1.5)
	hub.BreakerOpen.With("W").Set(1)
	hub.ActionsApplied.With("W", "smart-model").Add(3)

	var sb strings.Builder
	if err := hub.Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("own exposition does not parse: %v\n%s", err, sb.String())
	}
	// Every cataloged family is present even though almost nothing was
	// touched — the hub pre-registers the whole catalog at zero.
	for _, spec := range Catalog() {
		if !parsed.Has(spec.Name) {
			t.Errorf("cataloged family %s missing from exposition", spec.Name)
		}
	}
	if got := parsed.Sum(MetricActionsApplied); got != 3 {
		t.Errorf("parsed %s = %g, want 3", MetricActionsApplied, got)
	}
}

func TestParseTextRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"not a metric line\n",
		"metric{unclosed value\n",
		"# TYPE x bogustype\nx 1\n",
		`m{l="v} 1` + "\n",
	} {
		if _, err := ParseText(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseText accepted %q", bad)
		}
	}
}

func TestBusRingWrapKeepsCumulativeCounts(t *testing.T) {
	bus := NewBus(fixedClock(), 4)
	for i := 0; i < 10; i++ {
		bus.Emit(EventDecision, "W")
	}
	bus.Emit(EventInvoice, "W")
	if got := bus.KindCount(EventDecision); got != 10 {
		t.Fatalf("KindCount(decision) = %d after ring wrap, want 10", got)
	}
	if got := bus.Total(); got != 11 {
		t.Fatalf("Total = %d, want 11", got)
	}
	recent := bus.Recent(100)
	if len(recent) != 4 {
		t.Fatalf("Recent returned %d events from a 4-slot ring", len(recent))
	}
	for i := 1; i < len(recent); i++ {
		if recent[i].Seq != recent[i-1].Seq+1 {
			t.Fatalf("Recent not in order: %d then %d", recent[i-1].Seq, recent[i].Seq)
		}
	}
	if recent[len(recent)-1].Kind != EventInvoice {
		t.Fatalf("newest event is %s, want invoice", recent[len(recent)-1].Kind)
	}
}

func TestEventJSONIsValidAndOrdered(t *testing.T) {
	bus := NewBus(fixedClock(), 8)
	bus.Emit(EventActionApplied, "W",
		A("statement", `ALTER "x"`), AInt("attempt", 2), ADur("delay", 30*time.Second))
	evs := bus.Recent(10)
	if len(evs) != 1 {
		t.Fatalf("bus holds %d events", len(evs))
	}
	line := evs[0].JSON()
	if !json.Valid([]byte(line)) {
		t.Fatalf("event JSON invalid: %s", line)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatal(err)
	}
	if m["kind"] != "action-applied" || m["warehouse"] != "W" {
		t.Fatalf("decoded event wrong: %v", m)
	}
	attrs := m["attrs"].(map[string]any)
	if attrs["statement"] != `ALTER "x"` || attrs["attempt"] != "2" || attrs["delay"] != "30s" {
		t.Fatalf("decoded attrs wrong: %v", attrs)
	}
	if evs[0].Attr("attempt") != "2" || evs[0].Attr("missing") != "" {
		t.Fatal("Attr lookup wrong")
	}
}

var errWriteFailed = errors.New("write failed")

// writeLog records every Write as one string; from write number failAt
// on (0: never) it fails.
type writeLog struct {
	writes []string
	failAt int
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.writes = append(w.writes, string(p))
	if w.failAt > 0 && len(w.writes) >= w.failAt {
		return 0, errWriteFailed
	}
	return len(p), nil
}

// TestBusOutputLinesMatchEvents: the output gets every event's JSON
// line in sequence order, one Write each, as many as Total counts even
// after the ring wraps. The first line is pinned byte for byte:
// RFC3339Nano time, Go-quoted strings, attrs in emission order.
func TestBusOutputLinesMatchEvents(t *testing.T) {
	now := time.Date(2023, 1, 1, 0, 0, 0, 500, time.UTC)
	bus := NewBus(func() time.Time { return now }, 4)
	out := &writeLog{}
	bus.SetOutput(out)
	var want []string
	emit := func(kind EventKind, warehouse string, attrs ...Attr) {
		bus.Emit(kind, warehouse, attrs...)
		want = append(want, bus.Recent(1)[0].JSON()+"\n")
		now = now.Add(90 * time.Minute)
	}
	emit(EventActionApplied, `W"h`, A("statement", "ALTER \"x\"\t\\ é\x01"), AInt("attempt", 2))
	for i := 0; i < 9; i++ {
		emit(EventDecision, "W", AInt("i", i))
	}
	emit(EventInvoice, "")

	if got := uint64(len(out.writes)); got != bus.Total() {
		t.Fatalf("%d writes for %d events", got, bus.Total())
	}
	for i := range want {
		if out.writes[i] != want[i] {
			t.Fatalf("write %d = %q, want %q", i, out.writes[i], want[i])
		}
	}
	const first = `{"seq":1,"time":"2023-01-01T00:00:00.0000005Z","kind":"action-applied","warehouse":"W\"h",` +
		`"attrs":{"statement":"ALTER \"x\"\t\\ é\x01","attempt":"2"}}` + "\n"
	if out.writes[0] != first {
		t.Fatalf("first line = %q, want %q", out.writes[0], first)
	}
	if err := bus.Err(); err != nil {
		t.Fatalf("Err = %v after clean writes", err)
	}
}

// TestBusOutputStopsAtFirstFailedWrite: a failed Write stops the
// output for good and Err reports it; the ring and counts go on.
func TestBusOutputStopsAtFirstFailedWrite(t *testing.T) {
	bus := NewBus(fixedClock(), 8)
	out := &writeLog{failAt: 2}
	bus.SetOutput(out)
	for i := 0; i < 5; i++ {
		bus.Emit(EventDecision, "W")
	}
	if len(out.writes) != 2 {
		t.Fatalf("bus wrote %d times, want 2 (one line, one failed write, then nothing)", len(out.writes))
	}
	if err := bus.Err(); !errors.Is(err, errWriteFailed) {
		t.Fatalf("Err = %v, want %v", err, errWriteFailed)
	}
	if bus.Total() != 5 || len(bus.Recent(10)) != 5 {
		t.Fatalf("Total %d, Recent %d after a failed write, want 5 and 5", bus.Total(), len(bus.Recent(10)))
	}
}

// blockingWriter blocks its first Write until release is closed.
type blockingWriter struct {
	entered, release chan struct{}
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	close(w.entered)
	<-w.release
	return len(p), nil
}

// TestBusOutputBlockedWriterDoesNotBlockReaders: while the output's
// Write blocks, another goroutine's Recent, KindCount and Total return
// and already see the event being written.
func TestBusOutputBlockedWriterDoesNotBlockReaders(t *testing.T) {
	bus := NewBus(fixedClock(), 8)
	w := &blockingWriter{entered: make(chan struct{}), release: make(chan struct{})}
	bus.SetOutput(w)
	emitted := make(chan struct{})
	go func() {
		defer close(emitted)
		bus.Emit(EventDecision, "W")
	}()
	<-w.entered
	read := make(chan struct{})
	go func() {
		defer close(read)
		if n := len(bus.Recent(10)); n != 1 {
			t.Errorf("Recent holds %d events while the write blocks, want 1", n)
		}
		if n := bus.KindCount(EventDecision); n != 1 {
			t.Errorf("KindCount = %d while the write blocks, want 1", n)
		}
		if n := bus.Total(); n != 1 {
			t.Errorf("Total = %d while the write blocks, want 1", n)
		}
	}()
	select {
	case <-read:
	case <-time.After(10 * time.Second):
		t.Fatal("ring reads waited on a blocked output Write")
	}
	close(w.release)
	<-emitted
}

func TestHandlerEndpoints(t *testing.T) {
	hub := NewHub(fixedClock())
	hub.Emit(EventInvoice, "W", AFloat("charge_credits", 1.25))
	hub.Emit(EventDecision, "W", A("kind", "size-down"))
	h := Handler(hub)

	get := func(path string) (int, string, string) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		body, _ := io.ReadAll(rec.Result().Body)
		return rec.Code, string(body), rec.Header().Get("Content-Type")
	}

	code, body, ct := get("/metrics")
	if code != 200 || !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics: code %d content-type %q", code, ct)
	}
	if _, err := ParseText(strings.NewReader(body)); err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}

	code, body, _ = get("/events?kind=invoice")
	if code != 200 {
		t.Fatalf("/events: code %d", code)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], `"kind":"invoice"`) {
		t.Fatalf("/events?kind=invoice returned %q", body)
	}

	if code, _, _ := get("/healthz"); code != 200 {
		t.Fatalf("/healthz: code %d", code)
	}
	if code, _, _ := get("/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/: code %d", code)
	}
	if code, _, _ := get("/"); code != 200 {
		t.Fatalf("/: code %d", code)
	}
}

func TestCatalogIsStable(t *testing.T) {
	a, b := Catalog(), Catalog()
	if len(a) == 0 {
		t.Fatal("empty catalog")
	}
	if len(a) != len(b) {
		t.Fatalf("catalog sizes differ: %d vs %d", len(a), len(b))
	}
	seen := map[string]bool{}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Type != b[i].Type {
			t.Fatalf("catalog not deterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
		if seen[a[i].Name] {
			t.Fatalf("duplicate catalog entry %s", a[i].Name)
		}
		seen[a[i].Name] = true
		if !strings.HasPrefix(a[i].Name, "kwo_") {
			t.Errorf("metric %s does not carry the kwo_ namespace", a[i].Name)
		}
	}
}
