package fleet

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
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
// reports the next.
func TestTimeSeriesBodyEdgeCases(t *testing.T) {
	spec := obs.FleetSpecs()[0].Name
	// appendTo appends vals to tenant i's first series (i < 0: the
	// fleet's), one simulated hour apart after the last barrier.
	appendTo := func(f *Fleet, i int, vals ...float64) {
		s := f.plane.fleet[0]
		if i >= 0 {
			s = f.tenants[i].rec.Series(spec)
		}
		for k, v := range vals {
			s.Append(f.plane.now.Add(time.Duration(k+1)*time.Hour), v)
		}
	}
	edge := []float64{0, math.Copysign(0, -1), 5e-324, 1e-7, 1e-6, 1e21, math.MaxFloat64, -math.MaxFloat64}
	cases := []struct {
		name   string
		budget int
		epochs int
		inject func(f *Fleet)
	}{
		{name: "before epoch 1", epochs: 0},
		{name: "pending buckets", budget: 4, epochs: 5},
		{name: "edge values", epochs: 1, inject: func(f *Fleet) {
			appendTo(f, -1, edge...)
			appendTo(f, 1, edge...)
		}},
		{name: "NaN", epochs: 1, inject: func(f *Fleet) { appendTo(f, 2, 1, math.NaN()) }},
		{name: "+Inf", epochs: 1, inject: func(f *Fleet) { appendTo(f, 0, math.Inf(1)) }},
		{name: "-Inf", epochs: 1, inject: func(f *Fleet) { appendTo(f, 1, math.Inf(-1)) }},
		{name: "first non-finite wins", epochs: 2, inject: func(f *Fleet) {
			appendTo(f, 2, math.NaN())
			appendTo(f, 1, math.Inf(-1))
			appendTo(f, 0, 1, math.Inf(1))
		}},
		{name: "fleet series non-finite", epochs: 1, inject: func(f *Fleet) {
			appendTo(f, 0, math.NaN())
			appendTo(f, -1, math.Inf(-1))
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
				tc.inject(f)
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
// the same at 64 tenants as at 4. The series copy and the render
// buffer come from a pool, so a warm read allocates only what the mux
// and the response header cost.
func TestTimeSeriesAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation accounting")
	}
	allocs := func(tenants int) float64 {
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
		h.ServeHTTP(w, req) // grow the buffer and the pooled scratch to this fleet's size
		return testing.AllocsPerRun(20, func() {
			w.body.Reset()
			h.ServeHTTP(w, req)
		})
	}
	small, big := allocs(4), allocs(64)
	if big > small+2 {
		t.Errorf("a full read allocates %.0f objects at 64 tenants, %.0f at 4: allocations grow with the fleet", big, small)
	}
	t.Logf("allocs per full read: %.0f at 4 tenants, %.0f at 64", small, big)
}
