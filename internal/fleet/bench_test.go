package fleet

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// benchConfig shapes a fleet for machinery benchmarks: one-minute
// epochs keep per-epoch simulation work small, so the numbers weight
// the fan-out and provisioning overhead rather than optimizer math.
func benchConfig(tenants, epochs int) Config {
	return Config{
		Tenants: tenants,
		Seed:    7,
		// Pinned (not per-CPU): on a single-core runner workers=0 would
		// collapse the fan-out to inline execution.
		Workers:     8,
		Epochs:      epochs,
		EpochLen:    time.Minute,
		AttachEpoch: 1,
		Opts:        lightOpts(),
	}
}

// benchFleetEpoch measures steady-state RunEpoch cost at a given fleet
// width, after the fleet is provisioned and the optimizers attached.
func benchFleetEpoch(b *testing.B, tenants int) {
	f, err := New(benchConfig(tenants, b.N+2))
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 2; i++ { // warm through attach before timing
		if err := f.RunEpoch(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.RunEpoch(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFleetEpoch16(b *testing.B)   { benchFleetEpoch(b, 16) }
func BenchmarkFleetEpoch256(b *testing.B)  { benchFleetEpoch(b, 256) }
func BenchmarkFleetEpoch1024(b *testing.B) { benchFleetEpoch(b, 1024) }

// BenchmarkFleetProvision measures New — tenant provisioning — for a
// 64-tenant fleet over a month of hourly epochs. Lazy provisioning
// defers the arrival stream, so this is engine/profile setup.
func BenchmarkFleetProvision(b *testing.B) {
	cfg := Config{
		Tenants:  64,
		Seed:     7,
		Epochs:   720, // a month of hours
		EpochLen: time.Hour,
		Opts:     lightOpts(),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		f.Close()
	}
}

// opsShapeFleet builds a fleet at kwobench ops-read's shape: 128
// tenants after 170 hourly epochs, their optimizers never attached,
// with room for more epochs.
func opsShapeFleet(more int) (*Fleet, error) {
	const epochs = 170
	f, err := New(Config{
		Tenants:     128,
		Seed:        7,
		Workers:     runtime.NumCPU(),
		Epochs:      epochs + more + 1,
		EpochLen:    time.Hour,
		AttachEpoch: epochs + more,
		Opts:        lightOpts(),
	})
	if err != nil {
		return nil, err
	}
	for e := 0; e < epochs; e++ {
		if err := f.RunEpoch(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return f, nil
}

// opsFleet is the ops-read-shaped fleet the /fleet/timeseries read
// benchmarks share, built once.
var (
	opsFleetOnce sync.Once
	opsFleet     *Fleet
	opsFleetErr  error
)

func opsReadFleet(b *testing.B) *Fleet {
	opsFleetOnce.Do(func() {
		opsFleet, opsFleetErr = opsShapeFleet(1)
		if opsFleetErr == nil {
			opsFleet.Close()
		}
	})
	if opsFleetErr != nil {
		b.Fatal(opsFleetErr)
	}
	return opsFleet
}

// bufferResponse is a ResponseWriter into one reused buffer.
type bufferResponse struct {
	header http.Header
	body   bytes.Buffer
}

func (w *bufferResponse) Header() http.Header { return w.header }

func (w *bufferResponse) WriteHeader(int) {}

func (w *bufferResponse) Write(p []byte) (int, error) { return w.body.Write(p) }

// benchTimeSeries times one full /fleet/timeseries read of the ops-read
// fleet into a reused response buffer.
func benchTimeSeries(b *testing.B, read func(f *Fleet, w http.ResponseWriter)) {
	f := opsReadFleet(b)
	w := &bufferResponse{header: http.Header{}}
	read(f, w) // grow the buffer and any pooled scratch
	b.SetBytes(int64(w.body.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.body.Reset()
		read(f, w)
	}
}

func BenchmarkFleetTimeSeries128(b *testing.B) {
	req := httptest.NewRequest("GET", "/fleet/timeseries", nil)
	h := Handler(opsReadFleet(b))
	benchTimeSeries(b, func(_ *Fleet, w http.ResponseWriter) { h.ServeHTTP(w, req) })
}

// BenchmarkFleetTimeSeries128Naive is the same read through the
// encoding/json oracle the endpoint served before it streamed.
func BenchmarkFleetTimeSeries128Naive(b *testing.B) {
	benchTimeSeries(b, func(f *Fleet, w http.ResponseWriter) { writeJSON(w, f.TimeSeries()) })
}

// BenchmarkFleetReadsAfterEpoch times /fleet/timeseries and the merged
// /metrics scrape at ops-read's shape the way ops-read issues them:
// each read follows one epoch, run with the timer stopped, so it pays
// for catching the rendered series points up and for the new values.
// Back-to-back reads of a fleet that does not advance find every
// render current and overstate what the caches save.
func BenchmarkFleetReadsAfterEpoch(b *testing.B) {
	for _, path := range []string{"/fleet/timeseries", "/metrics"} {
		b.Run(path[strings.LastIndexByte(path, '/')+1:], func(b *testing.B) {
			f, err := opsShapeFleet(b.N + 1)
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			h := Handler(f)
			req := httptest.NewRequest("GET", path, nil)
			w := &bufferResponse{header: http.Header{}}
			h.ServeHTTP(w, req) // build the renders and grow the buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := f.RunEpoch(); err != nil {
					b.Fatal(err)
				}
				w.body.Reset()
				b.StartTimer()
				h.ServeHTTP(w, req)
			}
		})
	}
}

// TestLazyProvisioningMemoryFlat: provisioning must not materialize
// the horizon's arrivals, so the heap New leaves behind does not grow
// with the horizon. A month of hourly epochs may hold at most 1.5× what
// a day holds; a whole-horizon Generate per tenant holds about five
// times as much.
func TestLazyProvisioningMemoryFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation skews heap accounting")
	}
	heapAfterNew := func(epochs int) uint64 {
		cfg := Config{
			Tenants:  16,
			Seed:     7,
			Epochs:   epochs,
			EpochLen: time.Hour,
			Opts:     lightOpts(),
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		f.Close()
		runtime.KeepAlive(f)
		if after.HeapAlloc < before.HeapAlloc {
			return 0
		}
		return after.HeapAlloc - before.HeapAlloc
	}
	day := heapAfterNew(24)
	month := heapAfterNew(720)
	if month*2 > day*3 {
		t.Errorf("heap after New: %d bytes for 720 epochs, %d for 24 — more than 1.5× (arrival horizon not deferred?)",
			month, day)
	}
	t.Logf("heap after New: 24 epochs=%d 720 epochs=%d", day, month)
}
