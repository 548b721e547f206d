// Command kwobench is the repository benchmark. One run measures one
// workload for a fixed time and prints every metric by name and unit,
// the output checks, and, as its last line, one JSON object:
//
//	bash kwobench/run.sh --workload fleet-ingest --seed 3 --seconds 20 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1
// it runs the same laps twice, untraced and then with spans and a CPU
// profile, and reports the per-layer split and the tracing overhead.
// README.md describes the workloads, the metrics and what each layer
// metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"kwo/internal/experiments"
)

var workloads = []scenario{warehouseOptimize, fleetIngest, opsRead}

// Run shape. Each run measures whole laps until their measured phases
// add up to --seconds, with at least minLaps laps: every time metric is
// built from medians over laps, so a burst of interference must hit
// half of the laps at the same step to move it. Each lap holds at
// least minReads reads, so that the p99 has ten samples beyond it.
const (
	minLaps = 3
	readPct = 99
)

var minReads = minSamples(readPct)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: warehouse-optimize, fleet-ingest or ops-read")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Float64("seconds", 20, "measured time per run")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "kwobench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace int) error {
	var w *scenario
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	fmt.Printf("workload %s seed %d: GOMAXPROCS=%d fleet workers=%d\n", w.name, seed, procs, procs)
	budget := time.Duration(seconds * float64(time.Second))

	var res result
	var t *tally
	if trace == 0 {
		var err error
		if t, err = runLaps(*w, seed, budget, minLaps, minReads, nil); err != nil {
			return err
		}
		res.Metrics = endToEnd(t)
	} else {
		// One warm-up lap, then half the time untraced and half traced,
		// so both rates come from one warm process on the same host.
		warm, err := runLaps(*w, seed, 0, 1, 0, nil)
		if err != nil {
			return err
		}
		plain, err := runLaps(*w, seed, budget/2, 1, 0, nil)
		if err != nil {
			return err
		}
		tr := newTracer()
		if t, err = runLaps(*w, seed, budget/2, 1, 0, tr); err != nil {
			return err
		}
		res.Metrics = perLayer(t, tr, rate(plain), poolRound(w.tenants))
		if err := writeSpans(w.name, tr); err != nil {
			return err
		}
		// Every lap of the process counts toward the checks.
		for _, u := range []*tally{warm, plain} {
			t.attempted += u.attempted
			t.failed += u.failed
			t.checks.failures = append(t.checks.failures, u.checks.failures...)
			t.digests = append(t.digests, u.digests...)
		}
		if err := checkDigests(t.digests); err != nil {
			t.checks.fail("%v", err)
		}
	}
	res.Correct = t.checks.ok()
	res.Attempted = t.attempted
	res.Failed = t.failed
	report(t, res)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// rate is a lap's simulated warehouse-hours per second of measured
// advance, taking each step at its typical time (tally.typical).
func rate(t *tally) float64 {
	return t.laps[0].hours / sum(t.typical(func(l lapStats) []float64 { return l.stepS }))
}

func endToEnd(t *tally) map[string]metric {
	hours := t.lapSum(func(l lapStats) float64 { return l.hours })
	reads := t.lapSum(func(l lapStats) float64 { return float64(l.reads) })
	// Each read at its typical latency: the percentiles rank a lap's
	// reads by the work each does, not by which ones a host stall hit.
	lat := t.typical(func(l lapStats) []float64 { return l.readMs })
	return map[string]metric{
		"setup_s":             {t.lapMedian(func(l lapStats) float64 { return l.setupS }), "s"},
		"sim_hours_per_s":     {rate(t), "warehouse-h/s"},
		"allocs_per_sim_hour": {t.lapSum(func(l lapStats) float64 { return float64(l.advAllocs) }) / hours, "objects/h"},
		"live_heap_mb":        {t.lapMedian(func(l lapStats) float64 { return l.liveMB }), "MB"},
		"read_p50_ms":         {median(lat), "ms"},
		"read_p99_ms":         {percentile(lat, readPct), "ms"},
		"reads_per_s":         {float64(len(lat)) / (sum(lat) / 1e3), "1/s"},
		"allocs_per_read":     {t.lapSum(func(l lapStats) float64 { return float64(l.readAllocs) }) / reads, "objects"},
	}
}

// perLayer turns the traced laps' spans, counters and CPU samples into
// the per-layer metrics. A metric whose layer the workload does not
// reach reads 0.
func perLayer(t *tally, tr *tracer, untracedRate, poolUs float64) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	split := cpuSplit(t.cpu)
	var total int64
	for _, ns := range split {
		total += ns
	}
	for _, l := range layers {
		share := 0.0
		if total > 0 {
			share = 100 * float64(split[l]) / float64(total)
		}
		put(l+".cpu_pct", share, "%")
	}

	spanMs := func(name string, p float64) float64 { return percentile(durations(tr.named(name)), p) }
	spanKB := func(name string) float64 { return median(byteSizes(tr.named(name))) / 1024 }
	put("core.attach_ms", spanMs("Engine.Attach", 50), "ms")
	tickHours, retrainHours := tr.named(hourSpan), tr.named(retrainHourSpan)
	put("simclock.hour_p50_ms", median(durations(tickHours)), "ms")
	put("simclock.hour_p90_ms", percentile(durations(retrainHours), 90), "ms")
	nsPerEvent, eventsPerHour := 0.0, 0.0
	if t.events > 0 {
		nsPerEvent = 1e6 * (sum(durations(tickHours)) + sum(durations(retrainHours))) / float64(t.events)
		eventsPerHour = float64(t.events) / t.lapSum(func(l lapStats) float64 { return l.hours })
	}
	put("simclock.ns_per_event", nsPerEvent, "ns")
	put("simclock.events_per_hour", eventsPerHour, "events/h")
	queries := t.counters["telemetry.queries"] * float64(len(t.laps))
	nsPerQuery := 0.0
	if queries > 0 {
		nsPerQuery = float64(split["telemetry"]) / queries
	}
	put("telemetry.ns_per_query", nsPerQuery, "ns")
	put("fleet.epoch_p50_ms", spanMs("Fleet.RunEpoch", 50), "ms")
	put("fleet.epoch_p90_ms", spanMs("Fleet.RunEpoch", 90), "ms")
	put("experiments.pool_round_us", poolUs, "us")
	put("fleet.checkpoint_ms", spanMs("Fleet.WriteCheckpoint", 50), "ms")
	put("fleet.checkpoint_mb", spanKB("Fleet.WriteCheckpoint")/1024, "MB")
	put("obs.metrics_ms", spanMs("GET /metrics", 50), "ms")
	put("obs.metrics_kb", spanKB("GET /metrics"), "KB")
	put("fleet.kpis_ms", spanMs("GET /fleet/kpis", 50), "ms")
	put("fleet.slo_ms", spanMs("GET /fleet/slo", 50), "ms")
	put("fleet.timeseries_ms", spanMs("GET /fleet/timeseries", 50), "ms")
	put("fleet.timeseries_kb", spanKB("GET /fleet/timeseries"), "KB")
	put("fleet.tenant_timeseries_ms", spanMs("GET /fleet/timeseries?tenant", 50), "ms")
	put("fleet.tenant_slo_ms", spanMs("GET /fleet/slo?tenant", 50), "ms")
	for _, c := range counterNames {
		put(c.metric, t.counters[c.metric], "count")
	}
	overhead := 0.0
	if r := rate(t); r > 0 {
		overhead = 100 * (untracedRate/r - 1)
	}
	put("trace.overhead_pct", overhead, "%")
	return m
}

// poolRound times a no-op experiments.Pool round over n indices on
// the fleet's worker count, in microseconds (median of many rounds).
func poolRound(n int) float64 {
	p := experiments.NewPool(runtime.NumCPU())
	defer p.Close()
	const rounds = 2000
	us := make([]float64, rounds)
	for i := range us {
		t0 := time.Now()
		p.Run(n, func(int) {})
		us[i] = float64(time.Since(t0)) / 1e3
	}
	return median(us)
}

// report prints the run for people: metrics with units, checks, the
// failed-operation share and the lap digest.
func report(t *tally, res result) {
	n := t.laps[0].reads
	fmt.Printf("laps %d, %d reads a lap (each lap's p%d has %d samples beyond it), digest %s\n",
		len(t.laps), n, readPct, beyond(n, readPct), t.digests[0])
	fmt.Printf("operations: %d attempted, %d failed (%.2f%%)\n",
		res.Attempted, res.Failed, 100*float64(res.Failed)/float64(max(res.Attempted, 1)))
	for _, f := range t.checks.failures {
		fmt.Println("CHECK FAILED:", f)
	}
	for _, k := range sortedNames(res.Metrics) {
		fmt.Printf("  %-28s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}

// writeSpans saves the traced run's spans next to the build output.
func writeSpans(name string, tr *tracer) error {
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(scratchRoot, "spans-"+name+".json"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(tr.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
