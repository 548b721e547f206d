package fleet

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"kwo/internal/obs"
)

// planePayloads runs a fleet to completion and returns the JSON
// encoding of all three /fleet/* payloads, concatenated — the byte
// surface the determinism property is asserted over.
func planePayloads(t *testing.T, cfg Config) []byte {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer f.Close()
	if _, err := f.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, v := range []any{f.KPIs(), f.TimeSeries(), f.SLOStatus()} {
		if err := enc.Encode(v); err != nil {
			t.Fatalf("encode payload: %v", err)
		}
	}
	return buf.Bytes()
}

// TestObsPlaneDeterminismAcrossWorkers extends the fleet's core
// determinism property to the observability plane: the recorded time
// series, live KPIs, and SLO verdicts must be byte-identical JSON for
// any worker pool size. Sampling happens sequentially in tenant-index
// order on the epoch barrier, so worker count can only change goroutine
// interleavings, never a recorded point or a burn value.
func TestObsPlaneDeterminismAcrossWorkers(t *testing.T) {
	cfg := testConfig(8, 1)
	base := planePayloads(t, cfg)
	sweep := []int{4, 16}
	if *fleetWorkers > 0 {
		sweep = []int{*fleetWorkers}
	}
	for _, w := range sweep {
		c := cfg
		c.Workers = w
		got := planePayloads(t, c)
		if !bytes.Equal(got, base) {
			i := 0
			for i < len(got) && i < len(base) && got[i] == base[i] {
				i++
			}
			lo, hi := i-40, i+40
			if lo < 0 {
				lo = 0
			}
			if hi > len(base) {
				hi = len(base)
			}
			t.Fatalf("workers=%d plane payloads diverge from workers=1 at byte %d: ...%s...",
				w, i, base[lo:hi])
		}
	}
}

// TestReplaySLOMatchesFleet extends the replay contract to the SLO
// layer: a tenant replayed standalone under the flags its drill-down
// command names must carry the exact verdicts (value, target, burn,
// pass) it earned in-fleet — the portal's drill-down from a fleet SLO
// breach to a reproducible single run depends on this. The second
// config moves the SLO thresholds and the series budget off their
// defaults, so the command must carry them too.
func TestReplaySLOMatchesFleet(t *testing.T) {
	custom := testConfig(8, 4)
	custom.SLO = obs.SLOConfig{MaxDegradedRatio: 0.01, P99BandFactor: 2}
	custom.SeriesBudget = 4
	for _, cfg := range []Config{testConfig(8, 4), custom} {
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Run(); err != nil {
			t.Fatal(err)
		}
		slo := f.SLOStatus()
		f.Close()
		for _, idx := range []int{0, 5} {
			in := slo.PerTenant[idx]
			rcfg, seed := replayConfig(t, in.Replay, Config{Opts: cfg.Opts})
			got, err := ReplayTenant(seed, rcfg)
			if err != nil {
				t.Fatalf("ReplayTenant(%q): %v", in.Replay, err)
			}
			if got.SLOPass != in.Pass || got.SLOWorstBurn != in.WorstBurn {
				t.Errorf("tenant %d replay SLO pass=%t burn=%g != in-fleet pass=%t burn=%g",
					idx, got.SLOPass, got.SLOWorstBurn, in.Pass, in.WorstBurn)
			}
			inJSON, _ := json.Marshal(in.Verdicts)
			gotJSON, _ := json.Marshal(got.SLO)
			if !bytes.Equal(inJSON, gotJSON) {
				t.Errorf("tenant %d replayed by %q: verdicts diverged:\n in-fleet: %s\n replay:   %s",
					idx, in.Replay, inJSON, gotJSON)
			}
		}
	}
}

// replayConfig parses a drill-down command with kwo-fleet's flag
// grammar over base, which supplies what no flag carries (Opts), and
// returns the config and the tenant seed it replays.
func replayConfig(t *testing.T, cmd string, base Config) (Config, int64) {
	t.Helper()
	args := strings.Fields(cmd)
	if len(args) == 0 || args[0] != "kwo-fleet" {
		t.Fatalf("replay command %q does not run kwo-fleet", cmd)
	}
	cfg := base
	fs := flag.NewFlagSet("kwo-fleet", flag.ContinueOnError)
	fs.IntVar(&cfg.Epochs, "epochs", 48, "")
	fs.DurationVar(&cfg.EpochLen, "epoch-len", time.Hour, "")
	fs.IntVar(&cfg.AttachEpoch, "attach-epoch", 0, "")
	fs.Float64Var(&cfg.FaultRate, "fault-rate", 0, "")
	backends := fs.String("backends", "", "")
	slo := fs.String("slo", "", "")
	fs.IntVar(&cfg.SeriesBudget, "series-budget", 0, "")
	fs.Int("tenant", -1, "")
	seed := fs.Int64("tenant-seed", 0, "")
	if err := fs.Parse(args[1:]); err != nil || fs.NArg() > 0 {
		t.Fatalf("replay command %q: %v (left over %q)", cmd, err, fs.Args())
	}
	if *backends != "" {
		cfg.Backends = strings.Split(*backends, ",")
	}
	for _, pair := range strings.Split(*slo, ",") {
		if pair == "" {
			continue
		}
		key, val, _ := strings.Cut(pair, "=")
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("replay command %q: -slo %q: %v", cmd, pair, err)
		}
		field := map[string]*float64{
			"enforcement-sla": &cfg.SLO.MaxAbandonRatio,
			"degraded-time":   &cfg.SLO.MaxDegradedRatio,
			"p99-factor":      &cfg.SLO.P99BandFactor,
			"p99-ratio":       &cfg.SLO.MaxP99BandRatio,
			"savings-floor":   &cfg.SLO.MinSavingsShare,
		}[key]
		if field == nil {
			t.Fatalf("replay command %q: unknown -slo key %q", cmd, key)
		}
		*field = v
	}
	return cfg, *seed
}

// TestReadPathsMatchOracles walks a fault-injected fleet with a
// panic-quarantined tenant through every epoch boundary — before epoch
// 1, across the quarantine, after finish, and again after a resume
// from a mid-run checkpoint — and holds the read side to its oracles at
// each: every tenant's stored verdicts equal a fresh obs.Evaluate over
// its series; the streamed /fleet/timeseries, full and ?tenant=, equals
// encoding/json over TimeSeries (cut to the row); and every
// /fleet/slo?tenant= body equals the full payload with per_tenant cut
// to that row, byte for byte. It walks twice: at the default budget,
// where no series halves, and at budget 4 over enough epochs that the
// series halve at least twice in each walk, so the rendered points the
// reads keep are started over and caught up again.
func TestReadPathsMatchOracles(t *testing.T) {
	for _, tc := range []struct {
		budget, epochs, halvings int
	}{{0, 8, 0}, {4, 16, 2}} {
		t.Run(fmt.Sprintf("budget %d", tc.budget), func(t *testing.T) {
			readPathsMatchOracles(t, tc.budget, tc.epochs, tc.halvings)
		})
	}
}

func readPathsMatchOracles(t *testing.T, budget, epochs, halvings int) {
	cfg := testConfig(4, 2)
	cfg.Epochs = epochs
	cfg.SeriesBudget = budget
	cfg.FaultRate = 0.5
	cfg.PanicTenants = []int{1}
	cfg.PanicEpoch = 3
	cfg.CheckpointDir = t.TempDir()
	cfg.CheckpointEvery = 4

	check := func(f *Fleet, at string) {
		t.Helper()
		for _, tn := range f.tenants {
			if fresh := obs.Evaluate(tn.objs, tn.rec.Series); !slices.Equal(tn.slo, fresh) {
				t.Errorf("%s: tenant %s stored verdicts %+v, fresh evaluation %+v", at, tn.id, tn.slo, fresh)
			}
		}
		checkTimeSeriesBodies(t, f, at)
		h := Handler(f)
		for i, tn := range f.tenants {
			slo := f.SLOStatus()
			slo.PerTenant = slo.PerTenant[i : i+1]
			want := httptest.NewRecorder()
			writeJSON(want, slo)
			got := httptest.NewRecorder()
			h.ServeHTTP(got, httptest.NewRequest("GET", "/fleet/slo?tenant="+tn.id, nil))
			if got.Code != 200 || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Errorf("%s: /fleet/slo?tenant=%s (status %d) differs from the full body cut to its row:\n got: %s\nwant: %s",
					at, tn.id, got.Code, got.Body, want.Body)
			}
		}
	}
	walk := func(f *Fleet, from string) {
		t.Helper()
		check(f, from)
		stride := f.plane.fleet[0].Stride()
		for f.Epoch() < cfg.Epochs {
			// A payload read before the barrier keeps its verdicts: the
			// barrier replaces each tenant's stored slice, never
			// rewrites it under a reader.
			held := f.SLOStatus()
			before, _ := json.Marshal(held)
			if err := f.RunEpoch(); err != nil {
				t.Fatal(err)
			}
			if after, _ := json.Marshal(held); !bytes.Equal(after, before) {
				t.Errorf("%s: epoch %d rewrote verdicts a payload read before it holds", from, f.Epoch())
			}
			check(f, fmt.Sprintf("%s, epoch %d", from, f.Epoch()))
		}
		f.finish()
		check(f, from+", after finish")
		if got := f.plane.fleet[0].Stride(); got < stride<<halvings {
			t.Errorf("%s: the fleet's series went from stride %d to %d, fewer than %d halvings", from, stride, got, halvings)
		}
	}

	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	walk(f, "fresh")
	if !f.tenants[1].quarantined() {
		t.Fatal("the panic probe did not quarantine t01")
	}

	cp, err := LoadCheckpoint(filepath.Join(cfg.CheckpointDir, checkpointFileName(4)))
	if err != nil {
		t.Fatal(err)
	}
	r, err := Resume(cp, resumeBase(cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	walk(r, "resumed at epoch 4")
}

// TestHandlerFleetEndpoints checks the three /fleet/* endpoints decode
// back into their DTOs with the fields the portal renders.
func TestHandlerFleetEndpoints(t *testing.T) {
	cfg := testConfig(3, 2)
	cfg.Epochs = 6
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	h := Handler(f)

	var kpis LiveKPIs
	code, body := get(t, h, "/fleet/kpis")
	if code != 200 {
		t.Fatalf("/fleet/kpis status %d", code)
	}
	if err := json.Unmarshal([]byte(body), &kpis); err != nil {
		t.Fatalf("/fleet/kpis decode: %v", err)
	}
	if kpis.Tenants != 3 || !kpis.Done || kpis.Epoch != cfg.Epochs {
		t.Errorf("kpis = tenants %d done %t epoch %d, want 3 true %d",
			kpis.Tenants, kpis.Done, kpis.Epoch, cfg.Epochs)
	}
	if len(kpis.PerTenant) != 3 {
		t.Fatalf("kpis rows = %d, want 3", len(kpis.PerTenant))
	}
	for _, row := range kpis.PerTenant {
		if !strings.Contains(row.Replay, "-tenant ") || !strings.Contains(row.Replay, "-tenant-seed ") {
			t.Errorf("tenant %s replay command incomplete: %q", row.Tenant, row.Replay)
		}
		if len(row.Last) != len(obs.FleetSpecs()) {
			t.Errorf("tenant %s last values = %d, want %d", row.Tenant, len(row.Last), len(obs.FleetSpecs()))
		}
	}

	var ts FleetTimeSeries
	code, body = get(t, h, "/fleet/timeseries")
	if code != 200 {
		t.Fatalf("/fleet/timeseries status %d", code)
	}
	if err := json.Unmarshal([]byte(body), &ts); err != nil {
		t.Fatalf("/fleet/timeseries decode: %v", err)
	}
	if len(ts.Fleet) != len(obs.FleetSpecs()) {
		t.Errorf("fleet series = %d, want %d", len(ts.Fleet), len(obs.FleetSpecs()))
	}
	for _, s := range ts.Fleet {
		if len(s.Points) == 0 || len(s.Points) > ts.Budget {
			t.Errorf("fleet series %s has %d points (budget %d)", s.Name, len(s.Points), ts.Budget)
		}
	}
	if len(ts.PerTenant) != 3 {
		t.Errorf("tenant series sets = %d, want 3", len(ts.PerTenant))
	}

	var slo SLOStatus
	code, body = get(t, h, "/fleet/slo")
	if code != 200 {
		t.Fatalf("/fleet/slo status %d", code)
	}
	if err := json.Unmarshal([]byte(body), &slo); err != nil {
		t.Fatalf("/fleet/slo decode: %v", err)
	}
	if slo.Passing+slo.Failing != 3 {
		t.Errorf("slo passing %d + failing %d != 3 tenants", slo.Passing, slo.Failing)
	}
	if len(slo.Objectives) == 0 {
		t.Error("slo payload carries no objectives")
	}
	for _, row := range slo.PerTenant {
		if len(row.Verdicts) != len(slo.Objectives) {
			t.Errorf("tenant %s has %d verdicts for %d objectives", row.Tenant, len(row.Verdicts), len(slo.Objectives))
		}
	}
}

// TestObsPlaneScrapeWhileAdvancing hammers the ops endpoints from two
// more goroutines while the fleet advances epoch by epoch — under
// -race this proves the plane lock actually covers every recorder and
// series access the endpoints make, and that concurrent reads never
// share pooled scratch. At budget 4 the series halve while the readers
// run, and the optimizers attach and faults land, adding label sets,
// so the readers start renders over and rebuild label text while the
// other reader may still be writing from the old ones.
func TestObsPlaneScrapeWhileAdvancing(t *testing.T) {
	cfg := testConfig(4, 2)
	cfg.SeriesBudget = 4
	// The panic probe fires an alert whose failed write updates
	// sink_errors while the readers run.
	cfg.PanicTenants = []int{1}
	cfg.AlertLog = &failingLog{failures: math.MaxInt}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h := Handler(f)
	labelSets := func() int {
		n := 0
		for _, lr := range f.Registries() {
			for _, fam := range lr.Registry.Snapshot() {
				n += len(fam.Samples)
			}
		}
		return n
	}
	sets, stride := labelSets(), f.plane.fleet[0].Stride()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, path := range []string{"/fleet/kpis", "/fleet/timeseries", "/fleet/slo", "/metrics"} {
					rr := httptest.NewRecorder()
					h.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
					if rr.Code != 200 {
						t.Errorf("%s status %d while advancing", path, rr.Code)
					}
				}
			}
		}()
	}
	for e := 0; e < cfg.Epochs; e++ {
		if err := f.RunEpoch(); err != nil {
			t.Errorf("epoch %d: %v", e, err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if got := labelSets(); got <= sets {
		t.Errorf("no label set was added while the readers ran (%d before, %d after)", sets, got)
	}
	if got := f.plane.fleet[0].Stride(); got < 4*stride {
		t.Errorf("the series halved fewer than twice while the readers ran (stride %d, then %d)", stride, got)
	}
	if _, err := f.Run(); err != nil {
		t.Fatalf("Run after manual epochs: %v", err)
	}
	if k := f.KPIs(); !k.Done || k.Epoch != cfg.Epochs {
		t.Errorf("final kpis done=%t epoch=%d, want true %d", k.Done, k.Epoch, cfg.Epochs)
	}
	if n := f.SLOStatus().Alerts.SinkErrors; n == 0 {
		t.Error("sink_errors = 0 after failed alert writes")
	}
}

// TestMergedExpositionPerTenantCatalog pins the contract behind
// `kwo-obscheck -tenants`: straight after provisioning — before a
// single epoch runs — the merged exposition carries at least one sample
// of every catalog family for every tenant label, because each tenant's
// hub is primed at New. Absence is always a wiring regression, never
// "nothing happened yet".
func TestMergedExpositionPerTenantCatalog(t *testing.T) {
	cfg := testConfig(3, 2)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b strings.Builder
	if err := obs.WriteMergedPrometheus(&b, TenantLabel, f.Registries()); err != nil {
		t.Fatalf("WriteMergedPrometheus: %v", err)
	}
	parsed, err := obs.ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}
	for _, id := range TenantIDs(cfg.Tenants) {
		for _, spec := range obs.Catalog() {
			name := spec.Name
			if spec.Type == obs.TypeHistogram {
				name += "_count"
			}
			if !parsed.HasSeriesWithLabel(name, TenantLabel, id) {
				t.Errorf("merged exposition missing sample of %s for tenant %s", spec.Name, id)
			}
		}
	}
}
