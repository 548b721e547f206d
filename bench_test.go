package kwo_test

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (§7) plus the headline claims and ablations. Each figure
// benchmark runs the corresponding experiment end to end and reports
// the headline measurement as custom metrics, so
//
//	go test -bench=Fig -benchmem
//
// regenerates the paper's evaluation and
//
//	go test -bench=. -benchmem
//
// additionally exercises the substrate's hot paths.

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"kwo"
	"kwo/internal/cdw"
	"kwo/internal/costmodel"
	"kwo/internal/experiments"
	"kwo/internal/ml"
	"kwo/internal/rl"
	"kwo/internal/simclock"
	"kwo/internal/telemetry"
	"kwo/internal/workload"
)

// ---------------------------------------------------------------------
// Figure benchmarks: regenerate each evaluation artifact.

// BenchmarkFig4a regenerates Figure 4a (savings on an unpredictable
// workload; paper: 10.4 → 4.2 credits/day, −59.7%).
func BenchmarkFig4a(b *testing.B) {
	var last experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig4a(int64(i + 1))
	}
	b.ReportMetric(last.ReductionPct, "savings_%")
	b.ReportMetric(last.PreAvgDaily, "pre_credits/day")
	b.ReportMetric(last.KwoAvgDaily, "kwo_credits/day")
}

// BenchmarkFig4b regenerates Figure 4b (savings on a predictable ETL
// workload; paper: 26.9 → 23.4 credits/day, −13.2%, p99 slightly lower).
func BenchmarkFig4b(b *testing.B) {
	var last experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig4b(int64(i + 1))
	}
	b.ReportMetric(last.ReductionPct, "savings_%")
	b.ReportMetric(last.KwoP99Secs/last.PreP99Secs, "p99_ratio")
}

// BenchmarkFig5 regenerates Figure 5 (cost-model accuracy; paper
// relative errors: 0.67%, 4.09%, 20.9%, 3.12%).
func BenchmarkFig5(b *testing.B) {
	var last experiments.Fig5Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig5(int64(i + 1))
	}
	for j, row := range last.Rows {
		b.ReportMetric(row.RelErrPct, "relerr"+string(rune('1'+j))+"_%")
	}
}

// BenchmarkFig6 regenerates Figure 6 (hourly actual vs overhead vs
// savings; paper: overhead negligible, actual+savings flat).
func BenchmarkFig6(b *testing.B) {
	var last experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig6(int64(i + 1))
	}
	b.ReportMetric(last.OverheadPctOfActual, "overhead_%of_actual")
	b.ReportMetric(last.TotalSavings/last.TotalOverhead, "savings/overhead")
	b.ReportMetric(last.WithoutKeeboCV, "without_keebo_cv")
}

// BenchmarkFig7 regenerates Figure 7 (slider Pareto frontier; paper:
// monotone cost/latency trade-off, 1.42s avg latency at slider 3).
func BenchmarkFig7(b *testing.B) {
	var last experiments.Fig7Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig7(int64(i + 1))
	}
	b.ReportMetric(last.Rows[0].Credits, "best_perf_credits/day")
	b.ReportMetric(last.Rows[4].Credits, "lowest_cost_credits/day")
	b.ReportMetric(last.Rows[2].AvgLatency, "balanced_avg_latency_s")
}

// BenchmarkOnboarding regenerates the onboarding ramp (paper: 50%/70%/
// 95% of eventual savings after 20/43/83 hours).
func BenchmarkOnboarding(b *testing.B) {
	var last experiments.OnboardingResult
	for i := 0; i < b.N; i++ {
		last = experiments.Onboarding(int64(i + 1))
	}
	b.ReportMetric(float64(last.HoursTo50), "hours_to_50%")
	b.ReportMetric(float64(last.HoursTo70), "hours_to_70%")
	b.ReportMetric(float64(last.HoursTo95), "hours_to_95%")
	b.ReportMetric(last.EventualPct, "eventual_savings_%")
}

// BenchmarkSavingsBand regenerates the 20–70% savings-band claim across
// workload archetypes.
func BenchmarkSavingsBand(b *testing.B) {
	var last experiments.SavingsBandResult
	for i := 0; i < b.N; i++ {
		last = experiments.SavingsBand(int64(i + 1))
	}
	for _, row := range last.Rows {
		b.ReportMetric(row.SavingsPct, row.Archetype+"_%")
	}
}

// BenchmarkAblationCostModel quantifies §5.2's parameter-estimation
// claim (trained replay beats uncalibrated replay).
func BenchmarkAblationCostModel(b *testing.B) {
	var last experiments.AblationCostModelResult
	for i := 0; i < b.N; i++ {
		last = experiments.AblationCostModel(int64(i + 1))
	}
	b.ReportMetric(last.TrainedErrPct, "trained_err_%")
	b.ReportMetric(last.DefaultErrPct, "default_err_%")
}

// BenchmarkAblationBackoff measures the self-correction loop under an
// injected spike.
func BenchmarkAblationBackoff(b *testing.B) {
	var last experiments.AblationBackoffResult
	for i := 0; i < b.N; i++ {
		last = experiments.AblationBackoff(int64(i + 1))
	}
	b.ReportMetric(float64(last.WithReverts), "reverts")
	b.ReportMetric(last.P99With, "p99_with_s")
	b.ReportMetric(last.P99Without, "p99_without_s")
}

// BenchmarkValueOfLearning compares KWO to static / rule-of-thumb /
// reactive baselines.
func BenchmarkValueOfLearning(b *testing.B) {
	var last experiments.ValueOfLearningResult
	for i := 0; i < b.N; i++ {
		last = experiments.ValueOfLearning(int64(i + 1))
	}
	for _, row := range last.Rows {
		b.ReportMetric(row.SavingsPct, row.Controller+"_savings_%")
	}
}

// ---------------------------------------------------------------------
// Substrate micro-benchmarks.

// BenchmarkSimulatorDay measures simulating one day of BI traffic on a
// multi-cluster warehouse (queries/op reported via custom metric).
func BenchmarkSimulatorDay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim := kwo.NewSimulation(int64(i))
		sim.CreateWarehouse(kwo.WarehouseConfig{
			Name: "W", Size: kwo.SizeSmall, MinClusters: 1, MaxClusters: 3,
			AutoSuspend: 5 * time.Minute, AutoResume: true,
		})
		n := sim.AddWorkload("W", kwo.BIDashboards(200), 24*time.Hour)
		sim.RunFor(25 * time.Hour)
		b.ReportMetric(float64(n), "queries/op")
	}
}

// BenchmarkCostModelReplay measures one what-if replay over a day of
// telemetry.
func BenchmarkCostModelReplay(b *testing.B) {
	sched := simclock.NewScheduler(1)
	acct := cdw.NewAccount(sched, cdw.DefaultSimParams())
	store := telemetry.NewStore()
	acct.Subscribe(store)
	cfg := cdw.Config{Name: "W", Size: cdw.SizeSmall, MinClusters: 1, MaxClusters: 2,
		AutoSuspend: 5 * time.Minute, AutoResume: true}
	acct.CreateWarehouse(cfg)
	pool, _, _ := workload.StandardPools()
	gen := workload.BI{Pool: pool, PeakQPH: 200}
	end := simclock.Epoch.Add(24 * time.Hour)
	workload.Drive(sched, acct, "W", gen.Generate(simclock.Epoch, end, sched.Rand("wl")))
	sched.RunUntil(end.Add(time.Hour))
	log := store.Log("W")
	model := costmodel.Train(log, cfg, simclock.Epoch, end, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := model.Replay(log, simclock.Epoch, end)
		if res.Credits <= 0 {
			b.Fatal("empty replay")
		}
	}
}

// BenchmarkCostModelTrain measures fitting all parameter estimators on
// a day of telemetry.
func BenchmarkCostModelTrain(b *testing.B) {
	sched := simclock.NewScheduler(1)
	acct := cdw.NewAccount(sched, cdw.DefaultSimParams())
	store := telemetry.NewStore()
	acct.Subscribe(store)
	cfg := cdw.Config{Name: "W", Size: cdw.SizeSmall, MinClusters: 1, MaxClusters: 2,
		AutoSuspend: 5 * time.Minute, AutoResume: true}
	acct.CreateWarehouse(cfg)
	pool, _, _ := workload.StandardPools()
	gen := workload.BI{Pool: pool, PeakQPH: 200}
	end := simclock.Epoch.Add(24 * time.Hour)
	workload.Drive(sched, acct, "W", gen.Generate(simclock.Epoch, end, sched.Rand("wl")))
	sched.RunUntil(end.Add(time.Hour))
	log := store.Log("W")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		costmodel.Train(log, cfg, simclock.Epoch, end, 8)
	}
}

// BenchmarkDQNStep measures one online DQN observation+update.
func BenchmarkDQNStep(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	agent := rl.NewAgent(rng, rl.DefaultConfig())
	state := make([]float64, rl.StateDim)
	for i := range state {
		state[i] = rng.Float64()
	}
	// The first step builds the networks' scratch; keep it out of the
	// steady state being measured. Each GC start wakes runtime cleanup
	// goroutines (the unique package's, linked in through net/http)
	// that allocate a little, so finish any cycle set-up triggered
	// before timing a loop that allocates nothing.
	agent.Observe(ml.Transition{State: state, Action: 0, Reward: 1, NextState: state})
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.Observe(ml.Transition{State: state, Action: i % 7, Reward: 1, NextState: state})
	}
}

// BenchmarkDQNPretrain measures one production offline pass: 1500
// minibatch steps (core.DefaultOptions().PretrainSteps) with the
// production agent over a replay buffer already holding a mix of
// terminal and bootstrapped transitions.
func BenchmarkDQNPretrain(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	agent := rl.NewAgent(rng, rl.DefaultConfig())
	states := make([][]float64, 64)
	for i := range states {
		states[i] = make([]float64, rl.StateDim)
		for j := range states[i] {
			states[i][j] = rng.Float64()
		}
	}
	history := make([]ml.Transition, 2000)
	for i := range history {
		history[i] = ml.Transition{State: states[i%64], Action: i % 7, Reward: rng.Float64() - 0.5,
			NextState: states[(i+1)%64], Terminal: i%4 == 0}
	}
	agent.Pretrain(history, 1) // builds the networks' scratch
	runtime.GC()               // as in BenchmarkDQNStep
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.Pretrain(nil, 1500)
	}
}

// BenchmarkDQNRank measures ranking the action space for one state.
func BenchmarkDQNRank(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	agent := rl.NewAgent(rng, rl.DefaultConfig())
	state := make([]float64, rl.StateDim)
	agent.Rank(state) // builds the network's scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.Rank(state)
	}
}

// BenchmarkWorkloadGeneration measures generating a week of BI arrivals.
func BenchmarkWorkloadGeneration(b *testing.B) {
	pool, _, _ := workload.StandardPools()
	gen := workload.BI{Pool: pool, PeakQPH: 200}
	end := simclock.Epoch.Add(7 * 24 * time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arr := gen.Generate(simclock.Epoch, end, rand.New(rand.NewSource(int64(i))))
		if len(arr) == 0 {
			b.Fatal("no arrivals")
		}
	}
}

// BenchmarkMeterHourly measures hourly billing aggregation over a month
// of segments.
func BenchmarkMeterHourly(b *testing.B) {
	m := cdw.NewMeter("W")
	t := simclock.Epoch
	for i := 0; i < 2000; i++ {
		m.StartCluster(i, cdw.SizeSmall, t, true)
		m.StopCluster(i, t.Add(5*time.Minute))
		t = t.Add(20 * time.Minute)
	}
	from := simclock.Epoch
	to := t
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := m.Hourly(from, to, to)
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}
