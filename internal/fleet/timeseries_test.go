package fleet

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"kwo/internal/obs"
)

// timeSeriesOracle is what /fleet/timeseries served before it
// streamed: encoding/json over TimeSeries through writeJSON, with
// per_tenant cut to row i when i >= 0.
func timeSeriesOracle(f *Fleet, i int) *httptest.ResponseRecorder {
	ts := f.TimeSeries()
	if i >= 0 {
		ts.PerTenant = ts.PerTenant[i : i+1]
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, ts)
	return rec
}

// checkTimeSeriesBodies requires the full /fleet/timeseries response
// and every ?tenant= drill-down to equal the oracle's status, headers
// and body, byte for byte.
func checkTimeSeriesBodies(t *testing.T, f *Fleet, at string) {
	t.Helper()
	h := Handler(f)
	check := func(path string, want *httptest.ResponseRecorder) {
		t.Helper()
		got := httptest.NewRecorder()
		h.ServeHTTP(got, httptest.NewRequest("GET", path, nil))
		if got.Code != want.Code || !reflect.DeepEqual(got.Result().Header, want.Result().Header) {
			t.Errorf("%s: %s answered %d %v, oracle %d %v", at, path,
				got.Code, got.Result().Header, want.Code, want.Result().Header)
		}
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			g, w := got.Body.Bytes(), want.Body.Bytes()
			i := 0
			for i < len(g) && i < len(w) && g[i] == w[i] {
				i++
			}
			t.Errorf("%s: %s body (%d bytes) differs from the encoding/json oracle (%d bytes) at byte %d:\n got: %q\nwant: %q",
				at, path, len(g), len(w), i, g[max(0, i-80):min(len(g), i+80)], w[max(0, i-80):min(len(w), i+80)])
		}
	}
	check("/fleet/timeseries", timeSeriesOracle(f, -1))
	for i, tn := range f.tenants {
		check("/fleet/timeseries?tenant="+tn.id, timeSeriesOracle(f, i))
	}
}

// TestTimeSeriesBodyEdgeCases holds the streamed /fleet/timeseries to
// the encoding/json oracle on what ordinary runs rarely reach: empty
// series before the first epoch, pending buckets, the float values
// whose formatting has special cases, and non-finite values, which
// must produce the oracle's encode-error body — the first one in
// document order names the error, so a drill-down that cuts it away
// reports the next. A NaN a later halving folds away must stop failing
// the body once it is gone, although a read rendered the series while
// it was there.
func TestTimeSeriesBodyEdgeCases(t *testing.T) {
	// appendTo appends vals to tenant i's series spec (i < 0: the
	// fleet's), one simulated hour apart after the last barrier.
	appendTo := func(f *Fleet, i int, spec string, vals ...float64) {
		s := f.plane.fleet[0]
		if i >= 0 {
			s = f.tenants[i].rec.Series(spec)
		}
		for k, v := range vals {
			s.Append(f.plane.now.Add(time.Duration(k+1)*time.Hour), v)
		}
	}
	queries := obs.FleetSpecs()[0].Name
	edge := []float64{0, math.Copysign(0, -1), 5e-324, 1e-7, 1e-6, 1e21, math.MaxFloat64, -math.MaxFloat64}
	cases := []struct {
		name   string
		budget int
		epochs int
		inject func(t *testing.T, f *Fleet)
	}{
		{name: "before epoch 1", epochs: 0},
		{name: "pending buckets", budget: 4, epochs: 5},
		{name: "edge values", epochs: 1, inject: func(_ *testing.T, f *Fleet) {
			appendTo(f, -1, queries, edge...)
			appendTo(f, 1, queries, edge...)
		}},
		{name: "NaN", epochs: 1, inject: func(_ *testing.T, f *Fleet) { appendTo(f, 2, queries, 1, math.NaN()) }},
		{name: "+Inf", epochs: 1, inject: func(_ *testing.T, f *Fleet) { appendTo(f, 0, queries, math.Inf(1)) }},
		{name: "-Inf", epochs: 1, inject: func(_ *testing.T, f *Fleet) { appendTo(f, 1, queries, math.Inf(-1)) }},
		{name: "first non-finite wins", epochs: 2, inject: func(_ *testing.T, f *Fleet) {
			appendTo(f, 2, queries, math.NaN())
			appendTo(f, 1, queries, math.Inf(-1))
			appendTo(f, 0, queries, 1, math.Inf(1))
		}},
		{name: "fleet series non-finite", epochs: 1, inject: func(_ *testing.T, f *Fleet) {
			appendTo(f, 0, queries, math.NaN())
			appendTo(f, -1, queries, math.Inf(-1))
		}},
		{name: "NaN a halving folds away", budget: 4, epochs: 2, inject: func(t *testing.T, f *Fleet) {
			checkTimeSeriesBodies(t, f, "before the NaN") // renders every series
			// Tenant 1's p99 series (AggMax) holds two points; the NaN
			// is its third and the first of the pair the next sample
			// completes. The halving then keeps the larger value, and
			// NaN > x is false, so max(NaN, x) is x.
			appendTo(f, 1, obs.SeriesP99Seconds, math.NaN())
			checkTimeSeriesBodies(t, f, "NaN retained")
			if body := timeSeriesOracle(f, -1).Body.String(); !strings.Contains(body, "encode error") {
				t.Fatalf("the retained NaN does not fail the oracle's body: %.200s", body)
			}
			if err := f.RunEpoch(); err != nil {
				t.Fatal(err)
			}
			if s := f.tenants[1].rec.Series(obs.SeriesP99Seconds); s.Stride() != 2 {
				t.Fatalf("p99 series stride %d after the fourth sample, want 2", s.Stride())
			}
			if body := timeSeriesOracle(f, -1).Body.String(); strings.Contains(body, "encode error") {
				t.Fatalf("the halving kept the NaN: %.200s", body)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(3, 1)
			cfg.SeriesBudget = tc.budget
			f, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			for e := 0; e < tc.epochs; e++ {
				if err := f.RunEpoch(); err != nil {
					t.Fatal(err)
				}
			}
			if tc.inject != nil {
				tc.inject(t, f)
			}
			checkTimeSeriesBodies(t, f, tc.name)
		})
	}
}

// stalledWriter is a ResponseWriter whose Write blocks until release
// is closed; entered is closed when the first Write arrives.
type stalledWriter struct {
	header  http.Header
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (w *stalledWriter) Header() http.Header { return w.header }

func (w *stalledWriter) WriteHeader(int) {}

func (w *stalledWriter) Write(b []byte) (int, error) {
	w.once.Do(func() { close(w.entered) })
	<-w.release
	return len(b), nil
}

// TestTimeSeriesStalledClient: a /fleet/timeseries client that stops
// reading must not hold up the epoch barrier. The handler writes only
// after releasing the plane lock, so RunEpoch completes while the
// handler is stuck in Write.
func TestTimeSeriesStalledClient(t *testing.T) {
	f, err := New(testConfig(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	w := &stalledWriter{header: http.Header{}, entered: make(chan struct{}), release: make(chan struct{})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		Handler(f).ServeHTTP(w, httptest.NewRequest("GET", "/fleet/timeseries", nil))
	}()
	<-w.entered
	epoch := make(chan error, 1)
	go func() { epoch <- f.RunEpoch() }()
	blocked := false
	select {
	case err = <-epoch:
	case <-time.After(30 * time.Second):
		blocked = true
	}
	close(w.release)
	<-served
	if blocked {
		err = <-epoch
		t.Error("RunEpoch blocked while a /fleet/timeseries client stalled in Write: the plane lock is held across Write")
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestTimeSeriesAllocsFlat: a full /fleet/timeseries read allocates
// the same at 64 tenants as at 4, both back to back and after an epoch
// that adds a point to every series without halving it. The copy
// and the write buffer come from a pool, and a render keeps room for
// the points its series can retain before the next halving, so a warm
// read allocates only what the mux and the response header cost.
func TestTimeSeriesAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation accounting")
	}
	var ms runtime.MemStats
	mallocs := func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	allocs := func(tenants int) (warm, afterEpoch float64) {
		f, err := New(testConfig(tenants, 2))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		for e := 0; e < 3; e++ {
			if err := f.RunEpoch(); err != nil {
				t.Fatal(err)
			}
		}
		h := Handler(f)
		req := httptest.NewRequest("GET", "/fleet/timeseries", nil)
		w := &bufferResponse{header: http.Header{}}
		h.ServeHTTP(w, req) // render every series and grow the pooled scratch to this fleet's size
		warm = testing.AllocsPerRun(20, func() {
			w.body.Reset()
			h.ServeHTTP(w, req)
		})
		// A collection during an epoch would empty the pool, and a read
		// on another P than the last would miss its private slot; either
		// would bill the pooled scratch's regrowth to the read.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		const epochs = 3
		var n uint64
		for e := 0; e < epochs; e++ {
			if err := f.RunEpoch(); err != nil {
				t.Fatal(err)
			}
			stride := f.plane.fleet[0].Stride()
			w.body.Reset()
			before := mallocs()
			h.ServeHTTP(w, req)
			n += mallocs() - before
			if stride != 1 {
				t.Fatalf("the fleet's series halved by epoch %d: the budget no longer leaves room", f.Epoch())
			}
		}
		return warm, float64(n) / epochs
	}
	small, smallEpoch := allocs(4)
	big, bigEpoch := allocs(64)
	if big > small+2 {
		t.Errorf("a full read allocates %.0f objects at 64 tenants, %.0f at 4: allocations grow with the fleet", big, small)
	}
	if bigEpoch > smallEpoch+2 {
		t.Errorf("a full read after an epoch allocates %.1f objects at 64 tenants, %.1f at 4: catching the series up allocates per series",
			bigEpoch, smallEpoch)
	}
	t.Logf("allocs per full read: %.0f at 4 tenants, %.0f at 64; after an epoch %.1f and %.1f", small, big, smallEpoch, bigEpoch)
}

// TestTimeSeriesReportsEffectiveBudget: the payload's budget is the one
// the series keep. NewSeries raises a budget below 4 to 4 and an odd one
// to the next even, so a fleet configured with SeriesBudget 1 keeps up
// to 4 points a series and must say 4. At each budget, through halvings,
// the streamed body equals the oracle, no series holds more points than
// the reported budget, and the replay command keeps the configured
// budget, the flag value that rebuilds the tenant.
func TestTimeSeriesReportsEffectiveBudget(t *testing.T) {
	for _, tc := range []struct{ configured, effective int }{{1, 4}, {5, 6}, {64, 64}} {
		cfg := testConfig(2, 1)
		cfg.SeriesBudget = tc.configured
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		for e := 0; e < 9; e++ {
			if err := f.RunEpoch(); err != nil {
				t.Fatal(err)
			}
			checkTimeSeriesBodies(t, f, fmt.Sprintf("budget %d, epoch %d", tc.configured, f.Epoch()))
		}
		ts := f.TimeSeries()
		if ts.Budget != tc.effective {
			t.Errorf("SeriesBudget %d: payload budget %d, the series keep %d", tc.configured, ts.Budget, tc.effective)
		}
		all := ts.Fleet
		for _, row := range ts.PerTenant {
			all = append(all, row.Series...)
		}
		for _, d := range all {
			if len(d.Points) > ts.Budget {
				t.Errorf("SeriesBudget %d: series %s holds %d points, more than the reported budget %d",
					tc.configured, d.Name, len(d.Points), ts.Budget)
			}
		}
		flag := fmt.Sprintf(" -series-budget %d ", tc.configured)
		if replay := f.SLOStatus().PerTenant[0].Replay; strings.Contains(replay, flag) != (tc.configured != defaultSeriesBudget) {
			t.Errorf("SeriesBudget %d: replay command %q", tc.configured, replay)
		}
	}
}

// TestTimeSeriesHeapFollowsPoints: the first read renders every series
// with room behind its points for more, never for more points than it
// holds, so what the read allocates follows the points the series
// retain, not the configured budget. At SeriesBudget 1<<14, room for
// the budget would be some 40 MB for this fleet's 30 series of three
// points each.
func TestTimeSeriesHeapFollowsPoints(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation accounting")
	}
	cfg := testConfig(2, 1)
	cfg.SeriesBudget = 1 << 14
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for e := 0; e < 3; e++ {
		if err := f.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	want := timeSeriesOracle(f, -1).Body.Bytes()
	var body bytes.Buffer
	body.Grow(len(want))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	if err := f.writeTimeSeries(&body, f.tenants); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms)
	allocated := ms.TotalAlloc - before
	if !bytes.Equal(body.Bytes(), want) {
		t.Fatalf("body differs from the oracle:\n got: %s\nwant: %s", body.Bytes(), want)
	}
	if allocated > 8*uint64(len(want)) {
		t.Errorf("the first read of a %d-byte body allocated %d bytes", len(want), allocated)
	}
	t.Logf("the first read of a %d-byte body allocated %d bytes", len(want), allocated)
}
