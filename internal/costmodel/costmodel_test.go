package costmodel

import (
	"math"
	"testing"
	"time"

	"kwo/internal/action"
	"kwo/internal/cdw"
	"kwo/internal/simclock"
	"kwo/internal/telemetry"
	"kwo/internal/workload"
)

var t0 = simclock.Epoch

// synthObs fabricates latency observations with a known log2 slope.
func synthObs(slope float64, sizes []cdw.Size, perSize int) map[uint64][]telemetry.LatencyObs {
	out := make(map[uint64][]telemetry.LatencyObs)
	base := 100.0
	for _, s := range sizes {
		exec := base * math.Exp2(slope*float64(s))
		for i := 0; i < perSize; i++ {
			out[1] = append(out[1], telemetry.LatencyObs{Size: s, ExecSecs: exec})
		}
	}
	return out
}

func TestLatencyModelRecoversSlope(t *testing.T) {
	obs := synthObs(-1.0, []cdw.Size{cdw.SizeXSmall, cdw.SizeSmall, cdw.SizeMedium}, 3)
	m := FitLatency(obs)
	if m.TemplateCount() != 1 {
		t.Fatalf("template regressions = %d, want 1", m.TemplateCount())
	}
	// 100s at XS should predict ~25s at Medium.
	got := m.ScaleExec(1, 100, cdw.SizeXSmall, cdw.SizeMedium)
	if math.Abs(got-25) > 1 {
		t.Fatalf("scaled exec = %v, want ~25", got)
	}
	// And back up.
	got = m.ScaleExec(1, 25, cdw.SizeMedium, cdw.SizeXSmall)
	if math.Abs(got-100) > 4 {
		t.Fatalf("scaled exec = %v, want ~100", got)
	}
}

func TestLatencyModelFallback(t *testing.T) {
	// Template 2 has too few observations → falls back to global.
	obs := synthObs(-0.9, []cdw.Size{cdw.SizeXSmall, cdw.SizeSmall, cdw.SizeMedium}, 4)
	obs[2] = []telemetry.LatencyObs{{Size: cdw.SizeXSmall, ExecSecs: 50}}
	m := FitLatency(obs)
	got := m.ScaleExec(2, 50, cdw.SizeXSmall, cdw.SizeSmall)
	want := 50 * math.Exp2(m.LogStep())
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("fallback scale = %v, want %v", got, want)
	}
	if m.LogStep() > -0.5 || m.LogStep() < -1.3 {
		t.Fatalf("global log step = %v, want near -0.9", m.LogStep())
	}
}

func TestLatencyModelUnfittedDefaults(t *testing.T) {
	m := FitLatency(nil)
	if m.Fitted() {
		t.Fatal("empty model claims fitted")
	}
	got := m.ScaleExec(9, 100, cdw.SizeXSmall, cdw.SizeSmall)
	want := 100 * math.Exp2(defaultLogStep)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("default scale = %v, want %v", got, want)
	}
	if m.ScaleExec(9, 100, cdw.SizeSmall, cdw.SizeSmall) != 100 {
		t.Fatal("same-size scale changed value")
	}
}

func TestLatencyModelColdRatio(t *testing.T) {
	obs := map[uint64][]telemetry.LatencyObs{
		1: {
			{Size: cdw.SizeXSmall, ExecSecs: 10, Cold: false},
			{Size: cdw.SizeXSmall, ExecSecs: 10, Cold: false},
			{Size: cdw.SizeXSmall, ExecSecs: 30, Cold: true},
		},
	}
	m := FitLatency(obs)
	if math.Abs(m.ColdRatio()-3.0) > 1e-9 {
		t.Fatalf("cold ratio = %v, want 3", m.ColdRatio())
	}
}

func TestGapModel(t *testing.T) {
	g := FitGaps([]float64{10, 20, 30, 40, 600})
	if g.N() != 5 {
		t.Fatalf("N = %d", g.N())
	}
	if math.Abs(g.Mean()-140) > 1e-9 {
		t.Fatalf("mean = %v", g.Mean())
	}
	// With a 60s auto-suspend: idle billed = (10+20+30+40+60)/5 = 32.
	got := g.IdleBilledPerGap(60 * time.Second)
	if math.Abs(got-32) > 1e-9 {
		t.Fatalf("idle billed = %v, want 32", got)
	}
	// Only the 600s gap exceeds 60s → suspend fraction 0.2.
	if f := g.SuspendFraction(60 * time.Second); math.Abs(f-0.2) > 1e-9 {
		t.Fatalf("suspend fraction = %v, want 0.2", f)
	}
	// Negative gaps are ignored.
	if FitGaps([]float64{-5, 5}).N() != 1 {
		t.Fatal("negative gap not filtered")
	}
	// So are NaN gaps, which would otherwise sort first and poison the
	// mean and every prefix sum.
	g = FitGaps([]float64{5, math.NaN(), 1})
	if g.N() != 2 || g.Mean() != 3 {
		t.Fatalf("with a NaN gap: N = %d, mean = %v; want 2, 3", g.N(), g.Mean())
	}
	if got := g.IdleBilledPerGap(2 * time.Second); got != 1.5 {
		t.Fatalf("with a NaN gap: idle billed = %v, want 1.5", got)
	}
	if FitGaps(nil).IdleBilledPerGap(time.Minute) != 0 {
		t.Fatal("empty gap model billed idle")
	}
}

func TestClusterModelAnalytic(t *testing.T) {
	m := &ClusterModel{slots: 8}
	// Tiny load: one cluster.
	if got := m.Predict(10, 5, 10); got != 1 {
		t.Fatalf("light load clusters = %v, want 1", got)
	}
	// Heavy load: 3600 qph × 20s / 8 slots = 2.5 clusters of work.
	got := m.Predict(3600, 20, 10)
	if got < 2.5 || got > 5 {
		t.Fatalf("heavy load clusters = %v, want in [2.5, 5]", got)
	}
	// Clamped by max.
	if got := m.Predict(36000, 60, 3); got != 3 {
		t.Fatalf("clamped clusters = %v, want 3", got)
	}
}

// buildTelemetry runs a real workload against the simulator with a
// fixed config and returns the telemetry log plus the actual credits
// over the window — ground truth for replay accuracy tests.
func buildTelemetry(t *testing.T, cfg cdw.Config, gen workload.Generator, days int, seed int64) (*telemetry.WarehouseLog, *cdw.Account, float64, time.Time) {
	t.Helper()
	sched := simclock.NewScheduler(seed)
	acct := cdw.NewAccount(sched, cdw.DefaultSimParams())
	store := telemetry.NewStore()
	acct.Subscribe(store)
	if _, err := acct.CreateWarehouse(cfg); err != nil {
		t.Fatal(err)
	}
	to := t0.Add(time.Duration(days) * 24 * time.Hour)
	arr := gen.Generate(t0, to, sched.Rand("workload"))
	workload.Drive(sched, acct, cfg.Name, arr)
	sched.RunUntil(to.Add(2 * time.Hour)) // let stragglers finish
	wh, _ := acct.Warehouse(cfg.Name)
	actual := wh.Meter().CreditsBetween(t0, to, sched.Now())
	return store.Log(cfg.Name), acct, actual, to
}

func TestReplayMatchesActualUnchangedConfig(t *testing.T) {
	// The key §7.2 property: with no optimizer in play, replaying
	// telemetry under the *same* original config should reproduce the
	// actual bill closely.
	cfg := cdw.Config{
		Name: "W", Size: cdw.SizeSmall, MinClusters: 1, MaxClusters: 1,
		Policy: cdw.ScaleStandard, AutoSuspend: 3 * time.Minute, AutoResume: true,
	}
	biPool, _, _ := workload.StandardPools()
	gen := workload.BI{Pool: biPool, PeakQPH: 80, WeekendFactor: 0.2}
	log, _, actual, to := buildTelemetry(t, cfg, gen, 3, 11)
	if actual <= 0 {
		t.Fatal("no actual credits")
	}
	m := Train(log, cfg, t0, to, 8)
	res := m.Replay(log, t0, to)
	relErr := math.Abs(res.Credits-actual) / actual
	if relErr > 0.15 {
		t.Fatalf("replay = %.2f vs actual %.2f credits (rel err %.1f%%), want < 15%%",
			res.Credits, actual, relErr*100)
	}
	if res.Queries == 0 || res.Resumes == 0 || res.ActiveSeconds <= 0 {
		t.Fatalf("replay result incomplete: %+v", res)
	}
}

func TestReplayCountsIdleAndMinimums(t *testing.T) {
	// Two one-second queries an hour apart on a 60s-suspend warehouse:
	// two busy periods, each billing ~1s + 60s idle ≥ the 60s minimum.
	cfg := cdw.Config{
		Name: "W", Size: cdw.SizeXSmall, MinClusters: 1, MaxClusters: 1,
		AutoSuspend: time.Minute, AutoResume: true,
	}
	log := &telemetry.WarehouseLog{Name: "W"}
	for i := 0; i < 2; i++ {
		at := t0.Add(time.Duration(i) * time.Hour)
		log.Queries = append(log.Queries, cdw.QueryRecord{
			Warehouse: "W", SubmitTime: at, StartTime: at,
			EndTime:      at.Add(time.Second),
			ExecDuration: time.Second, Size: cdw.SizeXSmall, Clusters: 1,
		})
	}
	m := Train(log, cfg, t0, t0.Add(2*time.Hour), 8)
	res := m.Replay(log, t0, t0.Add(2*time.Hour))
	if res.Resumes != 2 {
		t.Fatalf("resumes = %d, want 2", res.Resumes)
	}
	// Each period bills 61s → total ~122s ≈ 0.0339 credits.
	want := 2 * 61.0 / 3600
	if math.Abs(res.Credits-want) > 0.01 {
		t.Fatalf("credits = %v, want ~%v", res.Credits, want)
	}
}

func TestReplayBridgesShortGaps(t *testing.T) {
	cfg := cdw.Config{
		Name: "W", Size: cdw.SizeXSmall, MinClusters: 1, MaxClusters: 1,
		AutoSuspend: 10 * time.Minute, AutoResume: true,
	}
	log := &telemetry.WarehouseLog{Name: "W"}
	// Queries every 5 minutes: gaps shorter than auto-suspend → one
	// continuous busy period.
	for i := 0; i < 12; i++ {
		at := t0.Add(time.Duration(i) * 5 * time.Minute)
		log.Queries = append(log.Queries, cdw.QueryRecord{
			Warehouse: "W", SubmitTime: at, StartTime: at,
			EndTime:      at.Add(10 * time.Second),
			ExecDuration: 10 * time.Second, Size: cdw.SizeXSmall, Clusters: 1,
		})
	}
	m := Train(log, cfg, t0, t0.Add(2*time.Hour), 8)
	res := m.Replay(log, t0, t0.Add(2*time.Hour))
	if res.Resumes != 1 {
		t.Fatalf("resumes = %d, want 1 (continuous)", res.Resumes)
	}
	// Active: 55min span + 10s + 10min trailing suspend ≈ 65min.
	wantSecs := 55*60 + 10 + 10*60.0
	if math.Abs(res.ActiveSeconds-wantSecs) > 30 {
		t.Fatalf("active seconds = %v, want ~%v", res.ActiveSeconds, wantSecs)
	}
}

func TestReplayEmptyWindow(t *testing.T) {
	cfg := cdw.Config{Name: "W", Size: cdw.SizeXSmall, MinClusters: 1, MaxClusters: 1, AutoResume: true}
	log := &telemetry.WarehouseLog{Name: "W"}
	m := Train(log, cfg, t0, t0.Add(time.Hour), 8)
	res := m.Replay(log, t0, t0.Add(time.Hour))
	if res.Credits != 0 || res.Resumes != 0 {
		t.Fatalf("empty replay = %+v", res)
	}
}

func TestReplayScalesExecAcrossSizes(t *testing.T) {
	// Telemetry recorded on Small (KWO downsized from Large): the
	// without-Keebo replay at Large should bill at 8x rate but shorter
	// active time per query.
	orig := cdw.Config{
		Name: "W", Size: cdw.SizeLarge, MinClusters: 1, MaxClusters: 1,
		AutoSuspend: time.Minute, AutoResume: true,
	}
	log := &telemetry.WarehouseLog{Name: "W"}
	// One long isolated query recorded at X-Small: 800s exec.
	log.Queries = append(log.Queries, cdw.QueryRecord{
		Warehouse: "W", SubmitTime: t0, StartTime: t0,
		EndTime:      t0.Add(800 * time.Second),
		ExecDuration: 800 * time.Second, Size: cdw.SizeXSmall, Clusters: 1,
		TemplateHash: 5,
	})
	m := Train(log, orig, t0, t0.Add(time.Hour), 8)
	res := m.Replay(log, t0, t0.Add(time.Hour))
	// With the default slope −0.85 per step: 800s × 2^(−0.85·3) ≈ 137s.
	// Billed: 137 + 60 idle ≈ 197s at 8 credits/hour ≈ 0.44 credits.
	execWant := 800 * math.Exp2(defaultLogStep*3)
	want := (execWant + 60) / 3600 * 8
	if math.Abs(res.Credits-want) > 0.05 {
		t.Fatalf("credits = %v, want ~%v", res.Credits, want)
	}
}

func TestEstimateSavings(t *testing.T) {
	cfg := cdw.Config{
		Name: "W", Size: cdw.SizeXSmall, MinClusters: 1, MaxClusters: 1,
		AutoSuspend: time.Minute, AutoResume: true,
	}
	log := &telemetry.WarehouseLog{Name: "W"}
	log.Queries = append(log.Queries, cdw.QueryRecord{
		Warehouse: "W", SubmitTime: t0, StartTime: t0,
		EndTime:      t0.Add(time.Minute),
		ExecDuration: time.Minute, Size: cdw.SizeXSmall, Clusters: 1,
	})
	m := Train(log, cfg, t0, t0.Add(time.Hour), 8)
	replayed := m.Replay(log, t0, t0.Add(time.Hour)).Credits
	savings := m.EstimateSavings(log, replayed-0.01, t0, t0.Add(time.Hour))
	if math.Abs(savings-0.01) > 1e-9 {
		t.Fatalf("savings = %v, want 0.01", savings)
	}
}

func TestEstimateCPHDirections(t *testing.T) {
	cfg := cdw.Config{
		Name: "W", Size: cdw.SizeMedium, MinClusters: 1, MaxClusters: 2,
		AutoSuspend: 10 * time.Minute, AutoResume: true,
	}
	log := &telemetry.WarehouseLog{Name: "W"}
	// Sparse workload: 30 queries over 10 hours, 5s each, 20-min gaps.
	for i := 0; i < 30; i++ {
		at := t0.Add(time.Duration(i) * 20 * time.Minute)
		log.Queries = append(log.Queries, cdw.QueryRecord{
			Warehouse: "W", SubmitTime: at, StartTime: at,
			EndTime:      at.Add(5 * time.Second),
			ExecDuration: 5 * time.Second, Size: cdw.SizeMedium, Clusters: 1,
		})
	}
	to := t0.Add(10 * time.Hour)
	m := Train(log, cfg, t0, to, 8)
	ws := log.Stats(t0, to)

	base := m.EstimateCPH(ws, cfg)
	if base <= 0 {
		t.Fatal("zero baseline CPH")
	}
	smaller := cfg
	smaller.Size = cdw.SizeXSmall
	if m.EstimateCPH(ws, smaller) >= base {
		t.Fatal("downsizing an idle-dominated warehouse did not reduce CPH")
	}
	shorter := cfg
	shorter.AutoSuspend = time.Minute
	if m.EstimateCPH(ws, shorter) >= base {
		t.Fatal("shorter auto-suspend on sparse workload did not reduce CPH")
	}
}

func TestPredictImpactDirections(t *testing.T) {
	cfg := cdw.Config{
		Name: "W", Size: cdw.SizeMedium, MinClusters: 1, MaxClusters: 4,
		AutoSuspend: 10 * time.Minute, AutoResume: true,
	}
	log := &telemetry.WarehouseLog{Name: "W"}
	for i := 0; i < 50; i++ {
		at := t0.Add(time.Duration(i) * 10 * time.Minute)
		log.Queries = append(log.Queries, cdw.QueryRecord{
			Warehouse: "W", SubmitTime: at, StartTime: at,
			EndTime:      at.Add(8 * time.Second),
			ExecDuration: 8 * time.Second, Size: cdw.SizeMedium, Clusters: 1,
		})
	}
	to := t0.Add(9 * time.Hour)
	m := Train(log, cfg, t0, to, 8)
	ws := log.Stats(t0, to)

	down := m.PredictImpact(ws, cfg, action.Action{Kind: action.SizeDown})
	if down.DeltaCreditsPerHour >= 0 {
		t.Fatalf("size-down predicted to cost more: %+v", down)
	}
	if down.LatencyFactor <= 1 {
		t.Fatalf("size-down predicted to speed up: %+v", down)
	}
	up := m.PredictImpact(ws, cfg, action.Action{Kind: action.SizeUp})
	if up.DeltaCreditsPerHour <= 0 {
		t.Fatalf("size-up predicted to save: %+v", up)
	}
	if up.LatencyFactor >= 1 {
		t.Fatalf("size-up predicted to slow down: %+v", up)
	}
	shorter := m.PredictImpact(ws, cfg, action.Action{Kind: action.SuspendShorter})
	if shorter.DeltaCreditsPerHour >= 0 {
		t.Fatalf("suspend-shorter predicted to cost more on sparse load: %+v", shorter)
	}
	if shorter.LatencyFactor < 1 {
		t.Fatalf("suspend-shorter predicted to speed up: %+v", shorter)
	}
	noop := m.PredictImpact(ws, cfg, action.Action{Kind: action.NoOp})
	if noop.DeltaCreditsPerHour != 0 || noop.LatencyFactor != 1 {
		t.Fatalf("no-op has impact: %+v", noop)
	}
}

func TestPredictImpactQueueRisk(t *testing.T) {
	cfg := cdw.Config{
		Name: "W", Size: cdw.SizeSmall, MinClusters: 1, MaxClusters: 2,
		AutoSuspend: 5 * time.Minute, AutoResume: true,
	}
	log := &telemetry.WarehouseLog{Name: "W"}
	// Saturating load: 7200 qph × 10s / 8 slots = 2.5 clusters needed.
	for i := 0; i < 200; i++ {
		at := t0.Add(time.Duration(i) * 500 * time.Millisecond)
		log.Queries = append(log.Queries, cdw.QueryRecord{
			Warehouse: "W", SubmitTime: at, StartTime: at,
			EndTime:      at.Add(10 * time.Second),
			ExecDuration: 10 * time.Second, Size: cdw.SizeSmall, Clusters: 2,
		})
	}
	to := t0.Add(100 * time.Second)
	m := Train(log, cfg, t0, to, 8)
	ws := log.Stats(t0, to.Add(time.Minute))
	down := m.PredictImpact(ws, cfg, action.Action{Kind: action.ClustersDown})
	if down.QueueRisk <= 0 {
		t.Fatalf("clusters-down under saturating load shows no queue risk: %+v", down)
	}
	if down.LatencyFactor <= 1 {
		t.Fatalf("queue risk without latency penalty: %+v", down)
	}
}

func TestClusterModelFitsFromTelemetry(t *testing.T) {
	cfg := cdw.Config{
		Name: "W", Size: cdw.SizeSmall, MinClusters: 1, MaxClusters: 4,
		Policy: cdw.ScaleStandard, AutoSuspend: 5 * time.Minute, AutoResume: true,
	}
	biPool, _, _ := workload.StandardPools()
	gen := workload.BI{Pool: biPool, PeakQPH: 400, WeekendFactor: 0.2}
	log, _, _, to := buildTelemetry(t, cfg, gen, 2, 13)
	cm := FitClusters(log, cfg, t0, to, 8)
	if !cm.Fitted() {
		t.Fatal("cluster model did not fit with 2 days of busy telemetry")
	}
	// Prediction must stay within physical bounds.
	for _, qph := range []float64{0, 100, 1000, 100000} {
		p := cm.Predict(qph, 10, 4)
		if p < 1 || p > 4 {
			t.Fatalf("prediction %v out of [1,4] at qph=%v", p, qph)
		}
	}
}

func TestPredictImpactPolicySwitch(t *testing.T) {
	cfg := cdw.Config{
		Name: "W", Size: cdw.SizeSmall, MinClusters: 1, MaxClusters: 4,
		Policy: cdw.ScaleStandard, AutoSuspend: 5 * time.Minute, AutoResume: true,
	}
	log := &telemetry.WarehouseLog{Name: "W"}
	// Multi-cluster load: ~1385 qph × 40s / 8 slots ≈ 1.9 clusters.
	for i := 0; i < 100; i++ {
		at := t0.Add(time.Duration(i) * 2 * time.Second)
		log.Queries = append(log.Queries, cdw.QueryRecord{
			Warehouse: "W", SubmitTime: at, StartTime: at,
			EndTime:      at.Add(40 * time.Second),
			ExecDuration: 40 * time.Second, Size: cdw.SizeSmall, Clusters: 2,
		})
	}
	to := t0.Add(200 * time.Second)
	m := Train(log, cfg, t0, to, 8)
	ws := log.Stats(t0, to.Add(time.Minute))

	eco := m.PredictImpact(ws, cfg, action.Action{Kind: action.PolicyEconomy})
	if eco.DeltaCreditsPerHour >= 0 {
		t.Fatalf("economy switch predicted to cost more: %+v", eco)
	}
	if eco.QueueRisk <= 0 || eco.LatencyFactor <= 1 {
		t.Fatalf("economy switch shows no queueing trade-off: %+v", eco)
	}
	// Switching back: slightly better latency, higher cost.
	ecoCfg := cfg
	ecoCfg.Policy = cdw.ScaleEconomy
	std := m.PredictImpact(ws, ecoCfg, action.Action{Kind: action.PolicyStandard})
	if std.DeltaCreditsPerHour <= 0 {
		t.Fatalf("standard switch predicted to save: %+v", std)
	}
	if std.LatencyFactor >= 1 {
		t.Fatalf("standard switch not an improvement: %+v", std)
	}
	// Single-cluster warehouses are indifferent to policy.
	single := cfg
	single.MaxClusters = 1
	none := m.PredictImpact(ws, single, action.Action{Kind: action.PolicyEconomy})
	if none.QueueRisk != 0 || none.LatencyFactor != 1 {
		t.Fatalf("policy switch on single-cluster warehouse has impact: %+v", none)
	}
}

// TestFitLatencyDeterministic is a regression test: FitLatency used to
// accumulate the pooled regression sums in map-iteration order, so the
// fitted weights differed in their last bits from run to run —
// occasionally flipping a borderline engine decision and breaking
// seed-level reproducibility. Many templates with irregular values make
// any order sensitivity visible across repeated fits.
func TestFitLatencyDeterministic(t *testing.T) {
	obs := make(map[uint64][]telemetry.LatencyObs)
	for tmpl := uint64(1); tmpl <= 60; tmpl++ {
		x := float64(tmpl)
		for _, s := range []cdw.Size{cdw.SizeXSmall, cdw.SizeSmall, cdw.SizeMedium} {
			exec := (100.0 + x/3.0) * math.Exp2(-0.9*float64(s))
			obs[tmpl] = append(obs[tmpl],
				telemetry.LatencyObs{Size: s, ExecSecs: exec},
				telemetry.LatencyObs{Size: s, ExecSecs: exec * 1.37, Cold: true})
		}
	}
	ref := FitLatency(obs)
	for i := 0; i < 20; i++ {
		m := FitLatency(obs)
		if m.globalLogStep != ref.globalLogStep || m.coldRatio != ref.coldRatio {
			t.Fatalf("fit %d diverged: logStep %v vs %v, coldRatio %v vs %v",
				i, m.globalLogStep, ref.globalLogStep, m.coldRatio, ref.coldRatio)
		}
		for j, w := range m.global.Weights {
			if w != ref.global.Weights[j] {
				t.Fatalf("fit %d: global weight %d = %v, want %v (bit-exact)",
					i, j, w, ref.global.Weights[j])
			}
		}
	}
}
