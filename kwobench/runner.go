package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"kwo/internal/obs"
)

// lap is one set-up of a workload followed by a fixed amount of measured
// work. Every lap of a run uses the same seed, so laps repeat the same
// simulation exactly: the measured phase is uniform from lap to lap, the
// state (and so the live heap) at its end is the same, and a lap whose
// output digest differs from the first lap's is a correctness failure.
type lap interface {
	// units is how many steps the measured phase runs.
	units() int
	// step advances the simulation by one unit and returns the
	// warehouse-hours simulated.
	step(i int, tr *tracer) (float64, error)
	// reads lists the requests a client issues after step i, in order.
	reads(i int) []read
	// handler serves the reads.
	handler() http.Handler
	// registries holds the program's own counters.
	registries() []*obs.Registry
	// steps is the number of scheduler events executed so far, or -1
	// where the schedulers are not reachable from outside.
	steps() int64
	// finish runs the end-of-lap output checks, reporting each failure
	// to c, and returns a digest of the lap's simulated outputs.
	finish(c *checker) string
	// close releases the lap's resources.
	close()
}

// scenario is a workload: its name, the reason it exists, and how to
// set up one lap of it.
type scenario struct {
	name    string
	why     string
	tenants int
	// newLap sets up one lap; the benchmark times it as setup_s.
	newLap func(seed int64, tr *tracer) (lap, error)
}

// read is one request of the read loop.
type read struct {
	name string // span name, e.g. "GET /fleet/kpis"
	path string
	kind bodyKind
	// tenants are the labels a /metrics body must carry.
	tenants []string
	// digest adds the body to the lap's output digest and asks for the
	// full /metrics parse (see checkResponse).
	digest bool
}

// lapStats is what one lap measured.
type lapStats struct {
	setupS     float64
	liveMB     float64
	hours      float64
	advanceS   float64
	stepS      []float64 // each step's measured advance, in order
	advAllocs  uint64
	reads      int
	readMs     []float64 // each read's latency, in order
	readAllocs uint64
}

// tally accumulates one run's measurements.
type tally struct {
	laps      []lapStats
	attempted int
	failed    int
	events    int64 // scheduler events in measured phases, or -1
	counters  map[string]float64
	digests   []string
	checks    checker
	cpu       []cpuSample
}

// lapMedian is the median over laps of f.
func (t *tally) lapMedian(f func(lapStats) float64) float64 {
	xs := make([]float64, len(t.laps))
	for i, l := range t.laps {
		xs[i] = f(l)
	}
	return median(xs)
}

// typical is medianEach over laps of f: each step's (or read's) median
// time across the run's laps.
func (t *tally) typical(f func(lapStats) []float64) []float64 {
	rows := make([][]float64, len(t.laps))
	for i, l := range t.laps {
		rows[i] = f(l)
	}
	return medianEach(rows)
}

// lapSum is the sum over laps of f.
func (t *tally) lapSum(f func(lapStats) float64) float64 {
	var s float64
	for _, l := range t.laps {
		s += f(l)
	}
	return s
}

// runLaps runs laps of w until the measured phases add up to budget and
// at least minLaps laps have run. Each lap must hold at least minReads
// reads, as its read percentiles need. With tr set it records spans and
// a CPU profile of every measured phase.
func runLaps(w scenario, seed int64, budget time.Duration, minLaps, minReads int, tr *tracer) (*tally, error) {
	t := &tally{counters: map[string]float64{}}
	var measured time.Duration
	var ms runtime.MemStats
	mallocs := func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	resp := newResponse()
	for len(t.laps) < minLaps || measured < budget {
		if tr != nil {
			tr.lap = len(t.laps)
		}
		var st lapStats
		runtime.GC()
		start := time.Now()
		l, err := w.newLap(seed, tr)
		if err != nil {
			return nil, fmt.Errorf("lap %d set-up: %w", len(t.laps), err)
		}
		st.setupS = time.Since(start).Seconds()
		// Counters are read on the first lap only: every lap does the
		// same work.
		first := len(t.laps) == 0
		var c0 map[string]float64
		if first {
			c0 = readCounters(l.registries())
		}
		s0 := l.steps()
		h := l.handler()
		reqs := map[string]*http.Request{}
		dig := sha256.New()
		runtime.GC()
		var prof *bytes.Buffer
		if tr != nil {
			prof = &bytes.Buffer{}
			if err := pprof.StartCPUProfile(prof); err != nil {
				return nil, err
			}
		}
		for i := 0; i < l.units(); i++ {
			a0 := mallocs()
			t0 := time.Now()
			hours, err := l.step(i, tr)
			d := time.Since(t0)
			st.advAllocs += mallocs() - a0
			st.advanceS += d.Seconds()
			st.stepS = append(st.stepS, d.Seconds())
			st.hours += hours
			measured += d
			t.attempted++
			if err != nil {
				t.failed++
				t.checks.fail("step %d: %v", i, err)
			}
			for _, r := range l.reads(i) {
				req := reqs[r.path]
				if req == nil {
					req, err = http.NewRequest(http.MethodGet, r.path, nil)
					if err != nil {
						return nil, err
					}
					reqs[r.path] = req
				}
				resp.reset()
				id := tr.begin(r.name)
				// Only the handler runs between the two allocation
				// readings; the request is built and the body checked
				// outside them.
				a0 := mallocs()
				t0 := time.Now()
				h.ServeHTTP(resp, req)
				d := time.Since(t0)
				st.readAllocs += mallocs() - a0
				tr.end(id, resp.body.Len())
				st.reads++
				measured += d
				st.readMs = append(st.readMs, float64(d)/1e6)
				t.attempted++
				if err := checkResponse(resp.status, resp.body.Bytes(), r); err != nil {
					t.failed++
					t.checks.fail("%s: %v", r.path, err)
				}
				if r.digest {
					fmt.Fprintf(dig, "%s %d\n", r.path, resp.body.Len())
					dig.Write(resp.body.Bytes())
				}
			}
		}
		if tr != nil {
			pprof.StopCPUProfile()
			samples, err := parseCPUProfile(prof.Bytes())
			if err != nil {
				return nil, err
			}
			t.cpu = append(t.cpu, samples...)
		}
		// Two collections: the first moves sync.Pool caches (such as
		// encoding/json's encode buffers, as large as the biggest body
		// or checkpoint) to their victim lists and the second frees
		// them, so the reading holds the lap's state and no pooled
		// scratch, whichever P the last encoder ran on.
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		st.liveMB = float64(ms.HeapAlloc) / (1 << 20)
		runtime.KeepAlive(l)
		if st.reads < minReads {
			return nil, fmt.Errorf("lap %d: %d reads, need %d for p%d", len(t.laps), st.reads, minReads, readPct)
		}

		if first {
			for k, v := range readCounters(l.registries()) {
				t.counters[k] = v - c0[k]
			}
		}
		if s0 >= 0 {
			t.events += l.steps() - s0
		} else {
			t.events = -1
		}
		io.WriteString(dig, l.finish(&t.checks))
		t.digests = append(t.digests, hex.EncodeToString(dig.Sum(nil)))
		l.close()
		fmt.Fprintf(os.Stderr, "lap %d: set-up %.3fs, %.1f sim-h/s, %.3fs wall, heap sys %.0f MB\n",
			len(t.laps), st.setupS, st.hours/st.advanceS, time.Since(start).Seconds(), float64(ms.HeapSys)/(1<<20))
		t.laps = append(t.laps, st)
	}
	if err := checkDigests(t.digests); err != nil {
		t.checks.fail("%v", err)
	}
	return t, nil
}

// counterNames maps per-layer counter metrics to the program's own
// counters; a "name{label=value}" entry sums only matching series.
var counterNames = []struct{ metric, family, label, value string }{
	{"core.decision_ticks", obs.MetricDecisionTicks, "", ""},
	{"core.trainings", obs.MetricTrainings, "", ""},
	{"core.replays_incremental", obs.MetricReplays, "mode", "incremental"},
	{"core.replays_scratch", obs.MetricReplays, "mode", "scratch"},
	{"core.cursor_rebuilds", obs.MetricCursorRebuilds, "", ""},
	{"actuator.attempts", obs.MetricActionAttempts, "", ""},
	{"actuator.applied", obs.MetricActionsApplied, "", ""},
	{"telemetry.queries", obs.MetricQueries, "", ""},
	{"obs.events", obs.MetricEvents, "", ""},
}

// readCounters sums each counter of counterNames across registries.
func readCounters(regs []*obs.Registry) map[string]float64 {
	out := make(map[string]float64, len(counterNames))
	for _, r := range regs {
		var snap []obs.FamilySnapshot
		for _, c := range counterNames {
			if c.label == "" {
				out[c.metric] += r.CounterSum(c.family)
				continue
			}
			if snap == nil {
				snap = r.Snapshot()
			}
			out[c.metric] += labeledSum(snap, c.family, c.label, c.value)
		}
	}
	return out
}

// labeledSum sums the samples of family whose label equals value.
func labeledSum(snap []obs.FamilySnapshot, family, label, value string) float64 {
	var s float64
	for _, f := range snap {
		if f.Name != family {
			continue
		}
		for li, l := range f.Labels {
			if l != label {
				continue
			}
			for _, smp := range f.Samples {
				if smp.LabelValues[li] == value {
					s += smp.Value
				}
			}
		}
	}
	return s
}

// scratchRoot, relative to the working directory (the repository root
// under run.sh), holds what a run writes: spans and checkpoint files.
const scratchRoot = ".bench_build"

// response is a reusable in-process http.ResponseWriter.
type response struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func newResponse() *response { return &response{header: http.Header{}} }

func (r *response) Header() http.Header { return r.header }

func (r *response) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *response) Write(b []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(b)
}

func (r *response) reset() {
	clear(r.header)
	r.status = 0
	r.body.Reset()
}
