package kwo

import (
	"fmt"
	"io"
	"net/http"
	"time"

	"kwo/internal/api"
	"kwo/internal/cdw"
	"kwo/internal/consolidate"
	"kwo/internal/core"
	"kwo/internal/obs"
	"kwo/internal/simclock"
	"kwo/internal/telemetry"
	"kwo/internal/workload"
)

// Simulation owns a virtual clock, a simulated CDW account, and the
// workloads driving it. All time in a Simulation is virtual: RunFor
// advances it event by event, so simulating weeks takes milliseconds
// and every run is reproducible for a given seed.
type Simulation struct {
	sched *simclock.Scheduler
	acct  *cdw.Account
	start time.Time
	store *telemetry.Store
	hub   *obs.Hub
}

// NewSimulation creates a simulation with default physical constants.
// The clock starts at Monday 2023-01-02 00:00 UTC.
func NewSimulation(seed int64) *Simulation {
	return NewSimulationWithParams(seed, cdw.DefaultSimParams())
}

// NewSimulationWithParams creates a simulation with custom CDW
// constants (concurrency, resume delays, cache behaviour, …).
func NewSimulationWithParams(seed int64, params SimParams) *Simulation {
	return NewSimulationWithBackend(seed, params, nil)
}

// NewSimulationWithBackend creates a simulation whose account runs on a
// specific CDW backend (see BackendByName); nil means the default
// Snowflake-shaped backend. The backend decides which configuration
// knobs exist, how billing is quantized, and how slowly capacity
// provisions; everything else about the simulation is unchanged.
func NewSimulationWithBackend(seed int64, params SimParams, b Backend) *Simulation {
	sched := simclock.NewScheduler(seed)
	acct := cdw.NewAccountWithBackend(sched, params, b)
	store := telemetry.NewStore()
	// One observability hub spans the whole stack: the account reports
	// injected faults and audit writes, the store reports telemetry
	// ingestion, and any optimizer created later (NewOptimizer passes
	// the hub through Options.Obs) reports decisions, actuation, and
	// billing on the same registry. Timestamps come from the virtual
	// clock, so instrumentation cannot perturb determinism.
	hub := obs.NewHub(sched.Now)
	acct.SetObs(hub)
	store.SetObs(hub)
	acct.Subscribe(store)
	return &Simulation{sched: sched, acct: acct, start: sched.Now(), store: store, hub: hub}
}

// WriteSnapshot serializes the simulation's full telemetry (queries,
// events, config changes, billing) as JSON lines. Identical seeds and
// inputs produce byte-identical snapshots, so the output doubles as a
// determinism fingerprint.
func (s *Simulation) WriteSnapshot(w io.Writer) error { return s.store.WriteSnapshot(w) }

// Start returns the simulation's start time.
func (s *Simulation) Start() time.Time { return s.start }

// Now returns the current virtual time.
func (s *Simulation) Now() time.Time { return s.sched.Now() }

// RunFor advances virtual time by d, executing all scheduled work.
func (s *Simulation) RunFor(d time.Duration) { s.sched.RunFor(d) }

// RunUntil advances virtual time to t.
func (s *Simulation) RunUntil(t time.Time) { s.sched.RunUntil(t) }

// CreateWarehouse provisions a virtual warehouse.
func (s *Simulation) CreateWarehouse(cfg WarehouseConfig) (*Warehouse, error) {
	wh, err := s.acct.CreateWarehouse(cfg)
	if err != nil {
		return nil, err
	}
	return &Warehouse{sim: s, wh: wh, name: cfg.Name}, nil
}

// Warehouse returns a handle to an existing warehouse.
func (s *Simulation) Warehouse(name string) (*Warehouse, error) {
	wh, err := s.acct.Warehouse(name)
	if err != nil {
		return nil, err
	}
	return &Warehouse{sim: s, wh: wh, name: name}, nil
}

// AddWorkload generates arrivals from now until horizon (default: 30
// days) and schedules them against the named warehouse. It returns the
// number of queries scheduled.
func (s *Simulation) AddWorkload(warehouse string, gen Generator, horizon ...time.Duration) int {
	h := 30 * 24 * time.Hour
	if len(horizon) > 0 {
		h = horizon[0]
	}
	arrivals := gen.Generate(s.sched.Now(), s.sched.Now().Add(h), s.sched.Rand("workload:"+gen.Name()))
	n, _ := workload.Drive(s.sched, s.acct, warehouse, arrivals)
	return n
}

// Submit hands a single query to a warehouse at the current time.
func (s *Simulation) Submit(warehouse string, q Query) error {
	return s.acct.Submit(warehouse, q)
}

// Alter applies an ALTER WAREHOUSE-style change as the given actor.
// Use an actor other than "kwo" to simulate external interference.
func (s *Simulation) Alter(warehouse string, alt Alteration, actor string) error {
	return s.acct.Alter(warehouse, alt, actor)
}

// InjectFaults installs an API fault plan on the account: from now on
// ALTER calls fail or lose their acknowledgment at the configured rates
// and the billing-history view lags or goes dark per the plan. Faults
// draw from the simulation's seeded RNG, so a faulty run is exactly as
// reproducible as a clean one. Installing the zero plan disables
// injection.
func (s *Simulation) InjectFaults(plan FaultPlan) { s.acct.SetFaults(plan) }

// FaultCounts reports how many API faults have been injected so far.
func (s *Simulation) FaultCounts() FaultCounts { return s.acct.FaultCounts() }

// Stats returns telemetry statistics for a warehouse over [from, to).
func (s *Simulation) Stats(warehouse string, from, to time.Time) WindowStats {
	return s.store.Log(warehouse).Stats(from, to)
}

// TotalCredits returns all credits billed so far across warehouses.
func (s *Simulation) TotalCredits() float64 { return s.acct.TotalCredits() }

// NewOptimizer creates a KWO engine over this simulation's account.
// The engine shares the simulation's telemetry store, so it can train
// on all history accumulated since the simulation began — even when
// the optimizer is created after days of simulated traffic, exactly
// like onboarding a warehouse with existing QUERY_HISTORY.
func (s *Simulation) NewOptimizer(opts Options) *Optimizer {
	if opts.Obs == nil {
		opts.Obs = s.hub
	}
	return &Optimizer{sim: s, engine: core.NewEngineWithStore(s.acct, s.store, opts)}
}

// Warehouse is a handle to one virtual warehouse.
type Warehouse struct {
	sim  *Simulation
	wh   *cdw.Warehouse
	name string
}

// Name returns the warehouse name.
func (w *Warehouse) Name() string { return w.name }

// Config returns the current configuration.
func (w *Warehouse) Config() WarehouseConfig { return w.wh.Config() }

// Running reports whether the warehouse is currently started.
func (w *Warehouse) Running() bool { return w.wh.Running() }

// ActiveClusters returns the number of running clusters.
func (w *Warehouse) ActiveClusters() int { return w.wh.ActiveClusters() }

// CreditsBetween returns credits billed in [from, to).
func (w *Warehouse) CreditsBetween(from, to time.Time) float64 {
	return w.wh.Meter().CreditsBetween(from, to, w.sim.Now())
}

// TotalCredits returns all credits billed so far.
func (w *Warehouse) TotalCredits() float64 {
	return w.wh.Meter().TotalCredits(w.sim.Now())
}

// DailyCredits returns per-day credits for `days` days starting at from.
func (w *Warehouse) DailyCredits(from time.Time, days int) []float64 {
	return w.wh.Meter().Daily(from, days, w.sim.Now())
}

// Hourly returns hourly billing rows over [from, to).
func (w *Warehouse) Hourly(from, to time.Time) []HourlyRecord {
	return w.wh.Meter().Hourly(from, to, w.sim.Now())
}

// Optimizer is the public face of Keebo's Warehouse Optimization: it
// watches attached warehouses, learns smart models, applies actions,
// self-corrects, and reports savings.
type Optimizer struct {
	sim    *Simulation
	engine *core.Engine
}

// Attach registers a warehouse for optimization; its current
// configuration becomes the without-Keebo baseline for savings
// estimates.
func (o *Optimizer) Attach(warehouse string, settings Settings) error {
	_, err := o.engine.Attach(warehouse, settings)
	return err
}

// Start begins the optimization loops.
func (o *Optimizer) Start() { o.engine.Start() }

// Stop halts all optimization.
func (o *Optimizer) Stop() { o.engine.Stop() }

// SetSlider moves a warehouse's cost/performance slider; the smart
// model re-calibrates without retraining.
func (o *Optimizer) SetSlider(warehouse string, s Slider) error {
	if !s.Valid() {
		return fmt.Errorf("kwo: invalid slider position %d", int(s))
	}
	sm, err := o.engine.Model(warehouse)
	if err != nil {
		return err
	}
	sm.SetSlider(s)
	return nil
}

// SetConstraints replaces a warehouse's constraint rules.
func (o *Optimizer) SetConstraints(warehouse string, cs Constraints) error {
	if err := cs.Validate(); err != nil {
		return err
	}
	sm, err := o.engine.Model(warehouse)
	if err != nil {
		return err
	}
	sm.SetConstraints(cs)
	return nil
}

// Health reports a warehouse's fault-handling state: degraded/safe
// mode, pending retries, circuit-breaker status, consecutive ingestion
// failures, and recovery counts.
func (o *Optimizer) Health(warehouse string) (Health, error) {
	return o.engine.Health(warehouse)
}

// ActuationFailures returns the actuator's structured failure log —
// every failed attempt, abandoned operation, breaker transition, and
// ingestion failure, in order.
func (o *Optimizer) ActuationFailures() []ActuationFailure {
	return o.engine.Actuator().Failures()
}

// Paused reports whether optimization of a warehouse is paused because
// an external change was detected.
func (o *Optimizer) Paused(warehouse string) (bool, error) {
	sm, err := o.engine.Model(warehouse)
	if err != nil {
		return false, err
	}
	return sm.Paused(), nil
}

// ResumeOptimization clears an external-change pause (the admin asked
// optimizations to continue).
func (o *Optimizer) ResumeOptimization(warehouse string) error {
	sm, err := o.engine.Model(warehouse)
	if err != nil {
		return err
	}
	wh, err := o.sim.acct.Warehouse(warehouse)
	if err != nil {
		return err
	}
	sm.ResumeOptimization(wh.Config())
	return nil
}

// Report summarizes spend, savings, latency and actions over [from, to).
func (o *Optimizer) Report(warehouse string, from, to time.Time) (Report, error) {
	return o.engine.Report(warehouse, from, to)
}

// DailySeries returns the Figure 4-style daily KPI rows.
func (o *Optimizer) DailySeries(warehouse string, from time.Time, days int) ([]DayKPI, error) {
	return o.engine.DailySeries(warehouse, from, days)
}

// HourlySeries returns the Figure 6-style hourly KPI rows.
func (o *Optimizer) HourlySeries(warehouse string, from time.Time, hours int) ([]HourKPI, error) {
	return o.engine.HourlySeries(warehouse, from, hours)
}

// Invoices returns all value-based-pricing invoices issued so far.
func (o *Optimizer) Invoices() []Invoice { return o.engine.Ledger().Invoices() }

// TotalSavings returns the cumulative estimated savings across
// invoices.
func (o *Optimizer) TotalSavings() float64 { return o.engine.Ledger().TotalSavings() }

// EstimateSavings runs an on-demand what-if estimate over [from, to).
func (o *Optimizer) EstimateSavings(warehouse string, from, to time.Time) (actual, withoutKeebo float64, err error) {
	return o.engine.EstimateSavings(warehouse, from, to)
}

// PortalWithAdvance returns the HTTP API service of §4.1, a JSON
// interface over this optimizer's dashboards, sliders, constraints,
// invoices and action log; mount it on any net/http server. A non-nil
// advance is called (under the portal's lock) before each request, to
// drive virtual time forward in lock-step with wall time for a live
// demo server.
func (o *Optimizer) PortalWithAdvance(advance func()) http.Handler {
	return api.NewServer(api.Backend{Engine: o.engine, Acct: o.sim.acct, Advance: advance})
}

// ConsolidationReport is the outcome of a warehouse-consolidation
// analysis (§1: "consolidating multiple warehouses into one").
type ConsolidationReport = consolidate.Recommendation

// BalanceReport is the outcome of a load-balancing analysis (§1:
// "load balancing decisions").
type BalanceReport = consolidate.BalanceReport

// AnalyzeLoadBalance looks for hot/cold warehouse pairs over [from, to)
// and suggests template moves that relieve queueing.
func (s *Simulation) AnalyzeLoadBalance(warehouses []string, from, to time.Time) (BalanceReport, error) {
	cands, err := s.candidates(warehouses, from, to)
	if err != nil {
		return BalanceReport{}, err
	}
	return consolidate.AnalyzeBalance(cands, from, to, consolidate.DefaultParams())
}

func (s *Simulation) candidates(warehouses []string, from, to time.Time) ([]consolidate.Candidate, error) {
	var cands []consolidate.Candidate
	for _, name := range warehouses {
		wh, err := s.acct.Warehouse(name)
		if err != nil {
			return nil, err
		}
		cands = append(cands, consolidate.Candidate{
			Config:        wh.Config(),
			Log:           s.store.Log(name),
			ActualCredits: wh.Meter().CreditsBetween(from, to, s.sched.Now()),
		})
	}
	return cands, nil
}

// AnalyzeConsolidation evaluates whether the named warehouses' combined
// load would fit one multi-cluster warehouse, and what that would cost,
// over [from, to).
func (s *Simulation) AnalyzeConsolidation(warehouses []string, from, to time.Time) (ConsolidationReport, error) {
	cands, err := s.candidates(warehouses, from, to)
	if err != nil {
		return ConsolidationReport{}, err
	}
	return consolidate.Analyze(cands, from, to, consolidate.DefaultParams())
}

// WhatIfReport is the projection of an alternative setting over a
// recorded window.
type WhatIfReport = core.WhatIfResult

// WhatIf forks a sandbox simulation from the warehouse's recorded
// telemetry and re-runs [from, to) under alternative settings — e.g.
// "what would last week have cost at Lowest Cost?" — without touching
// the live warehouse.
func (o *Optimizer) WhatIf(warehouse string, settings Settings, from, to time.Time) (WhatIfReport, error) {
	return o.engine.WhatIf(warehouse, settings, from, to)
}
