package core

import (
	"fmt"
	"time"

	"kwo/internal/action"
	"kwo/internal/actuator"
	"kwo/internal/cdw"
	"kwo/internal/monitor"
	"kwo/internal/obs"
	"kwo/internal/pricing"
	"kwo/internal/simclock"
	"kwo/internal/telemetry"
)

// ingestFailThreshold is how many consecutive billing-history pull
// failures put a warehouse into degraded mode: a blind optimizer must
// stop optimizing.
const ingestFailThreshold = 3

// Engine runs Algorithm 1 for every attached warehouse of one account.
type Engine struct {
	acct   *cdw.Account
	sched  *simclock.Scheduler
	store  *telemetry.Store
	act    *actuator.Actuator
	ledger *pricing.Ledger
	opts   Options
	hub    *obs.Hub
	// optsErr records an invalid Options field detected at construction
	// (e.g. an out-of-range SavingsShare). The constructors keep their
	// no-error signatures for composability; the error surfaces at
	// Attach, before the engine can bill anything at the wrong rate.
	optsErr error

	models map[string]*smState
	names  []string

	started time.Time
	running bool
	gen     uint64 // invalidates scheduled events after Stop
}

// smState couples a smart model with engine-side bookkeeping.
type smState struct {
	sm *SmartModel
	// lastChangeIdx is how many audit-log rows were already examined
	// for external changes.
	lastChangeIdx int
	// billStart is the beginning of the current billing period.
	billStart time.Time
	attachAt  time.Time
	// lastBillingPull is the last completed metering bucket (hourly on
	// Snowflake) whose billing history was ingested into the telemetry
	// store.
	lastBillingPull time.Time

	// Fault-tolerance bookkeeping (see Health).
	ingestFails   int // consecutive failed billing-history pulls
	degraded      bool
	degradedSince time.Time
	degradedTicks int
	recoveries    int

	// Cached per-warehouse obs instruments for the hot tick path — one
	// label resolution at attach instead of one per tick.
	obsTicks         *obs.Counter
	obsDegradedTicks *obs.Counter
	obsTrainings     *obs.Counter
}

// Health reports the engine's fault-handling state for one warehouse.
type Health struct {
	// Degraded reports safe mode: the circuit breaker is open or
	// ingestion keeps failing, so the engine holds constraint
	// enforcement as the only permitted action class.
	Degraded      bool
	DegradedSince time.Time
	// Pending reports an actuation still retrying in the background.
	Pending     bool
	BreakerOpen bool
	// IngestFailures is the current consecutive billing-pull failure
	// count (resets on the first successful pull).
	IngestFailures int
	// DegradedTicks counts decision ticks spent in degraded mode;
	// Recoveries counts degraded→normal transitions.
	DegradedTicks int
	Recoveries    int
}

// NewEngine creates an engine over the account. It subscribes its own
// telemetry store to the account; create the engine before driving
// workload, or use NewEngineWithStore with a store that has been
// subscribed all along, if training should see the full history.
func NewEngine(acct *cdw.Account, opts Options) *Engine {
	store := telemetry.NewStore()
	acct.Subscribe(store)
	return NewEngineWithStore(acct, store, opts)
}

// NewEngineWithStore creates an engine that reads telemetry from an
// existing store (already subscribed to the account by the caller).
func NewEngineWithStore(acct *cdw.Account, store *telemetry.Store, opts Options) *Engine {
	hub := opts.Obs
	if hub == nil {
		hub = obs.NewHub(acct.Scheduler().Now)
	}
	ledger, ledgerErr := pricing.NewLedger(opts.SavingsShare)
	if ledgerErr != nil {
		// Keep the engine constructible (accessors stay non-nil) but
		// refuse to attach warehouses: nothing may ever be invoiced at a
		// silently-substituted rate.
		ledger, _ = pricing.NewLedger(0)
	}
	e := &Engine{
		acct:    acct,
		sched:   acct.Scheduler(),
		store:   store,
		act:     actuator.New(acct, opts.OverheadPerOp),
		ledger:  ledger,
		opts:    opts,
		hub:     hub,
		optsErr: ledgerErr,
		models:  make(map[string]*smState),
	}
	e.act.SetObs(hub)
	if opts.Retry.MaxAttempts > 0 {
		e.act.SetRetryPolicy(opts.Retry)
	}
	// Operations that land on an asynchronous retry bypass tick's
	// bookkeeping; the callback keeps the smart model's expected config
	// in sync so a late success is not mistaken for anything else.
	e.act.SetOnApplied(func(warehouse, reason string, act action.Action, after cdw.Config) {
		st, ok := e.models[warehouse]
		if !ok {
			return
		}
		if act.Kind != action.NoOp {
			st.sm.markApplied(act, after)
			return
		}
		st.sm.expected = after
	})
	// A retried alteration was legal when decided, but the world moves
	// while it waits out its backoff: a constraint window may open, or an
	// external change may pause optimization. Discretionary retries are
	// revalidated against the rules in force at retry time; enforcement
	// ("constraint") always proceeds — it is what the rules demand.
	e.act.SetRetryGate(func(warehouse, reason string, alt cdw.Alteration) bool {
		if reason == "constraint" {
			return true
		}
		st, ok := e.models[warehouse]
		if !ok {
			return true
		}
		if st.sm.paused {
			return false
		}
		wh, err := e.acct.Warehouse(warehouse)
		if err != nil {
			return false
		}
		return st.sm.settings.Constraints.AllowsAlteration(e.sched.Now(), wh.Config(), alt)
	})
	return e
}

// Health reports the fault-handling state for a warehouse.
func (e *Engine) Health(warehouse string) (Health, error) {
	st, ok := e.models[warehouse]
	if !ok {
		return Health{}, fmt.Errorf("core: warehouse %s not attached", warehouse)
	}
	return Health{
		Degraded:       st.degraded,
		DegradedSince:  st.degradedSince,
		Pending:        e.act.Pending(warehouse),
		BreakerOpen:    e.act.BreakerOpen(warehouse),
		IngestFailures: st.ingestFails,
		DegradedTicks:  st.degradedTicks,
		Recoveries:     st.recoveries,
	}, nil
}

// Store exposes the engine's telemetry store (e.g. for dashboards).
func (e *Engine) Store() *telemetry.Store { return e.store }

// Ledger exposes the value-based pricing ledger.
func (e *Engine) Ledger() *pricing.Ledger { return e.ledger }

// Actuator exposes the action log.
func (e *Engine) Actuator() *actuator.Actuator { return e.act }

// Obs exposes the engine's observability hub (metrics registry and
// event bus). Never nil.
func (e *Engine) Obs() *obs.Hub { return e.hub }

// Attach registers a warehouse for optimization. The warehouse's
// current configuration becomes the without-Keebo baseline, and an
// initial training pass runs over whatever telemetry already exists
// (Algorithm 1 line 8: read the last 90 days).
func (e *Engine) Attach(warehouse string, settings WarehouseSettings) (*SmartModel, error) {
	if e.optsErr != nil {
		return nil, fmt.Errorf("core: engine misconfigured: %w", e.optsErr)
	}
	if _, ok := e.models[warehouse]; ok {
		return nil, fmt.Errorf("core: warehouse %s already attached", warehouse)
	}
	if err := settings.Constraints.Validate(); err != nil {
		return nil, err
	}
	if !settings.Slider.Valid() {
		return nil, fmt.Errorf("core: invalid slider position %d", int(settings.Slider))
	}
	wh, err := e.acct.Warehouse(warehouse)
	if err != nil {
		return nil, err
	}
	now := e.sched.Now()
	orig := wh.Config()
	rng := e.sched.Rand("smartmodel:" + warehouse)
	sm := newSmartModel(warehouse, orig, settings, e.store, rng, e.opts)
	sm.attachedAt = now
	sm.setBackend(e.acct.Backend())
	st := &smState{sm: sm, billStart: now, attachAt: now,
		lastChangeIdx:    len(e.acct.Changes()),
		obsTicks:         e.hub.DecisionTicks.With(warehouse),
		obsDegradedTicks: e.hub.DegradedTicks.With(warehouse),
		obsTrainings:     e.hub.Trainings.With(warehouse),
	}
	e.models[warehouse] = st
	e.names = append(e.names, warehouse)

	// Export the monitor's verdicts as it folds each window; the
	// callback is a pure observer of snapshots Observe computes anyway.
	sm.mon.SetObserver(func(snap monitor.Snapshot) {
		e.hub.BaselineP99.With(warehouse).Set(snap.BaselineP99.Seconds())
		e.hub.BaselineQPH.With(warehouse).Set(snap.BaselineQPH)
		if snap.LatencySpike {
			e.hub.MonitorSpikes.With(warehouse, "latency").Inc()
		}
		if snap.QueueSpike {
			e.hub.MonitorSpikes.With(warehouse, "queue").Inc()
		}
		if snap.LoadSpike {
			e.hub.MonitorSpikes.With(warehouse, "load").Inc()
		}
		if snap.NewPattern {
			e.hub.MonitorSpikes.With(warehouse, "new-pattern").Inc()
		}
	})

	// Initial training from existing history.
	log := e.store.Log(warehouse)
	if log != nil && len(log.Queries) > 0 {
		from := now.Add(-e.opts.HistoryWindow)
		sm.retrain(log, from, now, e.acct.Params().MaxConcurrency, e.opts)
		st.obsTrainings.Inc()
	}
	if e.running {
		e.scheduleLoops(st)
	}
	return sm, nil
}

// Model returns the smart model for a warehouse.
func (e *Engine) Model(warehouse string) (*SmartModel, error) {
	st, ok := e.models[warehouse]
	if !ok {
		return nil, fmt.Errorf("core: warehouse %s not attached", warehouse)
	}
	return st.sm, nil
}

// Warehouses lists attached warehouses in attach order.
func (e *Engine) Warehouses() []string {
	out := make([]string, len(e.names))
	copy(out, e.names)
	return out
}

// Start begins the optimization loops for every attached warehouse.
func (e *Engine) Start() {
	if e.running {
		return
	}
	e.running = true
	e.started = e.sched.Now()
	for _, name := range e.names {
		e.scheduleLoops(e.models[name])
	}
}

// Stop halts all loops (pending events become no-ops).
func (e *Engine) Stop() {
	e.running = false
	e.gen++
}

// Started returns the engine start time.
func (e *Engine) Started() time.Time { return e.started }

// Options returns the engine's configuration.
func (e *Engine) Options() Options { return e.opts }

// BillingPeriodStart returns the start of the warehouse's current
// (not yet invoiced) billing period — harnesses use it to assert that
// invoices tile the time axis with no gaps or overlaps.
func (e *Engine) BillingPeriodStart(warehouse string) (time.Time, error) {
	st, ok := e.models[warehouse]
	if !ok {
		return time.Time{}, fmt.Errorf("core: warehouse %s not attached", warehouse)
	}
	return st.billStart, nil
}

// BillingWatermark returns the last completed metering bucket whose
// billing history was ingested for the warehouse — the engine's ingest
// cursor. The fleet's crash-recovery checkpoints record it so a resumed
// run can prove its billing continuity matches the interrupted one.
func (e *Engine) BillingWatermark(warehouse string) (time.Time, error) {
	st, ok := e.models[warehouse]
	if !ok {
		return time.Time{}, fmt.Errorf("core: warehouse %s not attached", warehouse)
	}
	return st.lastBillingPull, nil
}

// AttachedAt returns when the warehouse was attached.
func (e *Engine) AttachedAt(warehouse string) (time.Time, error) {
	st, ok := e.models[warehouse]
	if !ok {
		return time.Time{}, fmt.Errorf("core: warehouse %s not attached", warehouse)
	}
	return st.attachAt, nil
}

func (e *Engine) scheduleLoops(st *smState) {
	gen := e.gen
	var decideLoop, trainLoop, billLoop func()
	decideLoop = func() {
		if gen != e.gen {
			return
		}
		e.tick(st)
		e.sched.After(e.opts.DecideEvery, "kwo-decide:"+st.sm.Warehouse, decideLoop)
	}
	trainLoop = func() {
		if gen != e.gen {
			return
		}
		e.retrain(st)
		e.sched.After(e.opts.TrainEvery, "kwo-train:"+st.sm.Warehouse, trainLoop)
	}
	billLoop = func() {
		if gen != e.gen {
			return
		}
		e.bill(st)
		e.sched.After(e.opts.BillEvery, "kwo-bill:"+st.sm.Warehouse, billLoop)
	}
	e.sched.After(e.opts.DecideEvery, "kwo-decide:"+st.sm.Warehouse, decideLoop)
	e.sched.After(e.opts.TrainEvery, "kwo-train:"+st.sm.Warehouse, trainLoop)
	e.sched.After(e.opts.BillEvery, "kwo-bill:"+st.sm.Warehouse, billLoop)
}

// tick is one Algorithm 1 real-time decision pass for one warehouse.
func (e *Engine) tick(st *smState) {
	sm := st.sm
	now := e.sched.Now()
	wh, err := e.acct.Warehouse(sm.Warehouse)
	if err != nil {
		return
	}
	st.obsTicks.Inc()
	// Telemetry collection overhead (Figure 6's red series).
	e.act.MeterTelemetryPull()

	// Ingest billing history since the last pull (§6.1: training data
	// is query history + billing history). Completed metering buckets
	// only — the bucket width comes from the backend (hourly on
	// Snowflake) — and the current partial bucket is re-pulled next
	// time. The pull goes through the account's fault-aware history API,
	// and the cursor advances only to the returned watermark — a lagging
	// metering view shortens this pull instead of silently losing the
	// delayed buckets.
	gran := e.acct.Backend().MeteringGranularity()
	bucketNow := now.Truncate(gran)
	if bucketNow.After(st.lastBillingPull) {
		from := st.lastBillingPull
		if from.IsZero() {
			from = st.attachAt.Add(-e.opts.HistoryWindow).Truncate(gran)
		}
		rows, watermark, err := e.acct.BillingHistory(sm.Warehouse, from, bucketNow)
		if err != nil {
			st.ingestFails++
			e.act.NoteIngestFailure(sm.Warehouse, err)
		} else {
			st.ingestFails = 0
			if len(rows) > 0 {
				e.store.AddBilling(sm.Warehouse, rows)
			}
			st.lastBillingPull = watermark
		}
	}

	current := wh.Config()
	snap := sm.mon.Observe(now)
	sm.noteSnapshot(snap)

	// External-change scan over the audit rows since the last tick.
	changes := e.acct.Changes()
	var external bool
	for _, c := range changes[st.lastChangeIdx:] {
		if c.Warehouse == sm.Warehouse && c.Actor != actuator.Actor {
			external = true
		}
	}
	st.lastChangeIdx = len(changes)

	credits := wh.Meter().TotalCredits(now)

	// Degraded/safe-mode bookkeeping: a blind or write-broken optimizer
	// must stop optimizing. Enforcement stays allowed — it is the one
	// action class the customer's rules demand regardless.
	pending := e.act.Pending(sm.Warehouse)
	wasDegraded := st.degraded
	breakerOpen := e.act.BreakerOpen(sm.Warehouse)
	st.degraded = breakerOpen || st.ingestFails >= ingestFailThreshold
	if st.degraded {
		if !wasDegraded {
			st.degradedSince = now
			sm.enterDegraded()
			cause := "ingest-failures"
			if breakerOpen {
				cause = "breaker-open"
			}
			e.hub.Degraded.With(sm.Warehouse).Set(1)
			e.hub.DegradedTransitions.With(sm.Warehouse, "enter").Inc()
			e.hub.Emit(obs.EventDegradedEnter, sm.Warehouse, obs.A("cause", cause))
		}
		st.degradedTicks++
		st.obsDegradedTicks.Inc()
	} else if wasDegraded {
		st.recoveries++
		e.hub.Degraded.With(sm.Warehouse).Set(0)
		e.hub.DegradedTransitions.With(sm.Warehouse, "exit").Inc()
		e.hub.Emit(obs.EventDegradedExit, sm.Warehouse,
			obs.AInt("degraded_ticks", st.degradedTicks))
	}

	// Reconcile expected-vs-actual. With no retry in flight and no
	// external audit rows to explain a mismatch, the divergence is our
	// own doing — an acknowledged-lost write that landed, or an abandoned
	// retry that did not. Adopt reality instead of letting a stale
	// expectation misclassify our own failed writes later.
	if !external && !sm.paused && !pending && sm.expected != current {
		sm.expected = current
	}

	if st.degraded || pending {
		if enforce := sm.decideDegraded(now, current, external); !enforce.IsZero() {
			e.enforce(sm, wh, now, current, enforce, true)
		}
		return
	}

	act, enforce := sm.decide(now, current, snap, external, credits, e.opts)
	if !enforce.IsZero() {
		e.enforce(sm, wh, now, current, enforce, false)
		return
	}
	if act.Kind == action.NoOp {
		return
	}
	reason := "smart-model"
	if act.Reverts {
		reason = "revert"
		// The self-correction monitor vetoed a live regression; this is
		// the §4.4 backoff firing, traced so operators can correlate it
		// with the spike that triggered it.
		e.hub.MonitorReverts.With(sm.Warehouse).Inc()
		e.hub.Emit(obs.EventMonitorBackoff, sm.Warehouse,
			obs.A("action", act.Kind.String()))
	}
	e.hub.Emit(obs.EventDecision, sm.Warehouse,
		obs.A("kind", act.Kind.String()), obs.A("reason", reason))
	if applied, err := e.act.Apply(act, reason); err == nil && applied {
		sm.markApplied(act, wh.Config())
	}
}

// enforce emits and applies a constraint alteration; a degraded tick
// tags its event mode=degraded. Enforcement proper (a window demands
// compliance now) and the post-window restore are logged under distinct
// reasons so audits can hold each to its own invariant. On failure the
// error is already in the actuator's failure log and retries continue
// in the background; the window is still active next tick, so
// enforcement re-fires until the config complies — expected is only
// advanced on a synchronous success (the OnApplied callback covers
// asynchronous ones).
func (e *Engine) enforce(sm *SmartModel, wh *cdw.Warehouse, now time.Time, current cdw.Config,
	alt cdw.Alteration, degraded bool) {

	reason := "constraint"
	if sm.settings.Constraints.Required(now, current).IsZero() {
		reason = "constraint-restore"
	}
	attrs := make([]obs.Attr, 0, 4)
	attrs = append(attrs, obs.A("kind", "enforce"), obs.A("reason", reason))
	if degraded {
		attrs = append(attrs, obs.A("mode", "degraded"))
	}
	attrs = append(attrs, obs.A("statement", alt.String()))
	e.hub.Emit(obs.EventDecision, sm.Warehouse, attrs...)
	if err := e.act.ApplyAlteration(sm.Warehouse, alt, reason); err == nil {
		sm.expected = wh.Config()
	}
}

// retrain refreshes one warehouse's cost model and agent.
func (e *Engine) retrain(st *smState) {
	now := e.sched.Now()
	log := e.store.Log(st.sm.Warehouse)
	if log == nil || len(log.Queries) == 0 {
		return
	}
	from := now.Add(-e.opts.HistoryWindow)
	st.sm.retrain(log, from, now, e.acct.Params().MaxConcurrency, e.opts)
	st.obsTrainings.Inc()
}

// bill closes the current billing period with a what-if savings
// estimate and an invoice.
func (e *Engine) bill(st *smState) {
	sm := st.sm
	now := e.sched.Now()
	wh, err := e.acct.Warehouse(sm.Warehouse)
	if err != nil {
		return
	}
	if sm.cost == nil {
		// No trained cost model yet, so no counterfactual — but the
		// period must still close with an invoice, because harnesses are
		// promised (see BillingPeriodStart) that invoices tile the time
		// axis with no gaps. Claim zero savings: without = actual.
		if now.After(st.billStart) {
			actual := wh.Meter().CreditsBetween(st.billStart, now, now)
			inv := e.ledger.Add(sm.Warehouse, st.billStart, now, actual, actual)
			e.noteInvoice(inv)
		}
		st.billStart = now
		return
	}
	actual := wh.Meter().CreditsBetween(st.billStart, now, now)
	without := sm.cost.Replay(e.store.Log(sm.Warehouse), st.billStart, now).Credits
	e.hub.Replays.With(sm.Warehouse, "scratch").Inc()
	inv := e.ledger.Add(sm.Warehouse, st.billStart, now, actual, without)
	e.noteInvoice(inv)
	st.billStart = now
}

// noteInvoice mirrors a freshly cut invoice into the obs registry and
// event bus.
func (e *Engine) noteInvoice(inv pricing.Invoice) {
	e.hub.Invoices.With(inv.Warehouse).Inc()
	e.hub.InvoiceActual.With(inv.Warehouse).Add(inv.ActualCredits)
	e.hub.InvoiceSavings.With(inv.Warehouse).Add(inv.Savings)
	e.hub.InvoiceCharge.With(inv.Warehouse).Add(inv.Charge)
	e.hub.Emit(obs.EventInvoice, inv.Warehouse,
		obs.A("from", inv.From.Format(time.RFC3339)),
		obs.A("to", inv.To.Format(time.RFC3339)),
		obs.AFloat("actual_credits", inv.ActualCredits),
		obs.AFloat("savings_credits", inv.Savings),
		obs.AFloat("charge_credits", inv.Charge))
}

// EstimateSavings runs an on-demand what-if estimate for a warehouse
// over [from, to) using its current cost model.
func (e *Engine) EstimateSavings(warehouse string, from, to time.Time) (actual, without float64, err error) {
	st, ok := e.models[warehouse]
	if !ok {
		return 0, 0, fmt.Errorf("core: warehouse %s not attached", warehouse)
	}
	if st.sm.cost == nil {
		return 0, 0, fmt.Errorf("core: warehouse %s has no trained cost model yet", warehouse)
	}
	wh, err := e.acct.Warehouse(warehouse)
	if err != nil {
		return 0, 0, err
	}
	now := e.sched.Now()
	actual = wh.Meter().CreditsBetween(from, to, now)
	without = st.sm.cost.Replay(e.store.Log(warehouse), from, to).Credits
	return actual, without, nil
}

// Snapshot returns the monitor's latest view without folding a new
// window (for dashboards/tests).
func (e *Engine) Snapshot(warehouse string) (monitor.Snapshot, error) {
	st, ok := e.models[warehouse]
	if !ok {
		return monitor.Snapshot{}, fmt.Errorf("core: warehouse %s not attached", warehouse)
	}
	return st.sm.mon.Peek(e.sched.Now()), nil
}
