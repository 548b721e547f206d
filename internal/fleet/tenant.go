package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"sync/atomic"
	"time"

	"kwo/internal/cdw"
	"kwo/internal/cdw/backend"
	"kwo/internal/core"
	"kwo/internal/obs"
	"kwo/internal/policy"
	"kwo/internal/simclock"
	"kwo/internal/telemetry"
	"kwo/internal/workload"
)

// warehouseName is the single warehouse every tenant runs. A fixed name
// keeps a tenant's behaviour a pure function of its seed (so a tenant
// can be replayed standalone from the seed alone); the merged obs view
// tells tenants apart by the tenant label, not the warehouse name.
const warehouseName = "MAIN_WH"

// TenantSeed derives tenant idx's simulation seed from the fleet seed,
// using the same FNV-split idiom as simclock.Scheduler.Rand. The split
// is a documented contract: `kwo-fleet -tenant-seed $(this value)`
// replays one tenant standalone, byte-identical to its in-fleet run.
func TenantSeed(fleetSeed int64, idx int) int64 {
	h := fnvHash(fmt.Sprintf("fleet:tenant:%d", idx))
	return fleetSeed ^ int64(h)
}

func fnvHash(s string) uint64 {
	// FNV-1a, inlined to keep the derivation self-describing here.
	const offset64 = 14695981039346656037
	const prime64 = 1099511628211
	var h uint64 = offset64
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// profile is a tenant's derived shape: workload class and intensity,
// warehouse size, slider stance. It is drawn entirely from the tenant's
// own seeded RNG stream, so a tenant's profile — like everything else
// about it — reproduces from its seed.
type profile struct {
	Workload    string // bi | etl | adhoc | mixed
	QPH         float64
	Size        cdw.Size
	Slider      policy.Slider
	MaxClusters int
	AutoSuspend time.Duration
	AutoResume  bool
	// Backend is the CDW backend the tenant was provisioned on. Empty
	// means the default (Snowflake) backend — the field is only set when
	// the fleet draws from a configured backend pool.
	Backend string
}

// String renders the profile compactly (no commas — it rides inside CSV
// rollup rows). The backend suffix appears only for non-default
// backends, so default-fleet report rows stay byte-identical.
func (p profile) String() string {
	s := fmt.Sprintf("%s qph=%.1f size=%s slider=%d clusters<=%d suspend=%s",
		p.Workload, p.QPH, p.Size, int(p.Slider), p.MaxClusters, p.AutoSuspend)
	if p.Backend != "" && p.Backend != "snowflake" {
		s += " backend=" + p.Backend
	}
	return s
}

func deriveProfile(rng *rand.Rand) profile {
	var p profile
	p.Workload = []string{"bi", "etl", "adhoc", "mixed"}[rng.Intn(4)]
	p.QPH = 8 + 16*rng.Float64()
	p.Size = []cdw.Size{cdw.SizeSmall, cdw.SizeMedium, cdw.SizeLarge}[rng.Intn(3)]
	p.Slider = []policy.Slider{policy.GoodPerformance, policy.Balanced, policy.LowCost}[rng.Intn(3)]
	p.MaxClusters = 1 + rng.Intn(2)
	p.AutoSuspend = time.Duration(5+5*rng.Intn(3)) * time.Minute
	p.AutoResume = true
	return p
}

// deriveBackend draws the tenant's backend from the configured pool on
// a dedicated RNG stream (other streams never see the draw), resolves
// it, and clamps the already-derived profile to the backend's
// capability set: a knob the backend has no concept of is removed from
// the warehouse configuration rather than rejected at creation. With an
// empty pool no draw happens at all and the default backend is
// returned, so single-backend fleets keep historical fingerprints.
func deriveBackend(rng *rand.Rand, pool []string, p *profile) (backend.Backend, error) {
	if len(pool) == 0 {
		return cdw.DefaultBackend(), nil
	}
	name := pool[rng.Intn(len(pool))]
	b, err := cdw.BackendByName(name)
	if err != nil {
		return nil, err
	}
	p.Backend = b.Name()
	caps := backend.CapabilitiesOf(b)
	if caps&backend.CapMultiCluster == 0 {
		p.MaxClusters = 1
	}
	if caps&backend.CapAutoSuspend == 0 {
		p.AutoSuspend = 0
	}
	if caps&backend.CapAutoResume == 0 {
		p.AutoResume = false
	}
	return b, nil
}

// generator builds the profile's arrival generator from the standard
// template pools (fresh pools per tenant — nothing shared).
func (p profile) generator() workload.Generator {
	bi, etl, adhoc := workload.StandardPools()
	switch p.Workload {
	case "etl":
		return workload.ETL{Pool: etl, Period: time.Hour, Offset: 5 * time.Minute,
			JobsPerBatch: 3, Jitter: 2 * time.Minute}
	case "adhoc":
		return workload.AdHoc{Pool: adhoc, BaseQPH: p.QPH / 2, DayVariance: 0.7,
			BurstsPerDay: 2, BurstQPH: 5 * p.QPH, BurstLen: 15 * time.Minute}
	case "mixed":
		return workload.Mixed{Parts: []workload.Generator{
			workload.BI{Pool: bi, PeakQPH: p.QPH, WeekendFactor: 0.2},
			workload.ETL{Pool: etl, Period: 2 * time.Hour, Offset: 5 * time.Minute,
				JobsPerBatch: 2, Jitter: 2 * time.Minute},
		}}
	default: // bi
		return workload.BI{Pool: bi, PeakQPH: p.QPH, WeekendFactor: 0.2}
	}
}

// deriveFaultPlan decides, from the tenant's own fault RNG stream,
// whether this tenant lives behind an unreliable control plane. The
// draws happen unconditionally so the stream stays aligned whatever the
// rate — replaying a tenant with the same seed and rate reproduces the
// same plan.
func deriveFaultPlan(rng *rand.Rand, rate float64) *cdw.FaultPlan {
	roll := rng.Float64()
	plan := cdw.FaultPlan{
		AlterFailRate:    0.15 + 0.25*rng.Float64(),
		AlterTimeoutRate: 0.05 + 0.10*rng.Float64(),
		BillingLag:       time.Duration(rng.Intn(3)) * time.Hour,
	}
	if roll >= rate {
		return nil
	}
	return &plan
}

// forcedFaultPlan is the severe plan installed on tenants explicitly
// listed in Config.FaultTenants — a billing outage blinding the
// optimizer from attach until the given end, plus a high ALTER failure
// rate. The outage guarantees degraded/safe mode engages (three failed
// metering pulls trip it), which is exactly what the epoch-barrier
// isolation test needs.
func forcedFaultPlan(outageFrom, outageTo time.Time) *cdw.FaultPlan {
	return &cdw.FaultPlan{
		AlterFailRate:    0.9,
		AlterTimeoutRate: 0.05,
		BillingOutages:   []cdw.FaultWindow{{From: outageFrom, To: outageTo}},
	}
}

// countingSource wraps a rand.Source64 and counts draws — the RNG
// stream position a checkpoint records. It implements both Int63 and
// Uint64 by pure delegation, so rand.Rand takes the same fast Source64
// path it would on the unwrapped source and the stream is bit-identical.
type countingSource struct {
	src rand.Source64
	n   uint64
}

func (c *countingSource) Int63() int64 { c.n++; return c.src.Int63() }

func (c *countingSource) Uint64() uint64 { c.n++; return c.src.Uint64() }

func (c *countingSource) Seed(seed int64) { c.n = 0; c.src.Seed(seed) }

// tenant is one fully independent simulation stack: its own virtual
// clock, simulated account, telemetry store, obs hub, and optimizer
// engine. Tenants share no mutable state — that is the fleet's whole
// determinism and isolation story.
type tenant struct {
	idx  int
	id   string
	seed int64
	prof profile
	plan *cdw.FaultPlan
	// profText and replayCmd are prof.String() and the tenant's
	// drill-down command, computed once at provisioning: both depend
	// only on the pinned Config, the index and the seed.
	profText  string
	replayCmd string

	sched  *simclock.Scheduler
	acct   *cdw.Account
	store  *telemetry.Store
	hub    *obs.Hub
	eng    *core.Engine
	events hash.Hash // SHA-256 of the bus output: every event's JSON line
	rec    *obs.Recorder
	objs   []obs.Objective
	slo    []obs.Verdict

	start      time.Time
	attachAt   time.Time
	horizonEnd time.Time
	cursor     workload.Cursor // nil once the stream is exhausted
	scheduled  int
	attachErr  error
	wdraws     *countingSource // workload RNG stream position

	// Quarantine state. quar is atomic because the ops handlers read it
	// while epoch workers may be writing; every other field below is
	// written before the Store(true) and only read after a Load(true),
	// so the atomic publishes them safely. qAnnounced is touched only on
	// the sequential epoch barrier.
	quar       atomic.Bool
	qEpoch     int
	qReason    string
	frozen     *TenantKPI
	qResume    *resumeQuarantine
	qAnnounced bool
}

// resumeQuarantine marks a tenant that the checkpoint being resumed had
// quarantined: at the recorded epoch the replay skips the advance and
// restores the frozen state instead of re-executing the failure.
type resumeQuarantine struct {
	epoch  int
	reason string
	kpi    *TenantKPI
}

// newTenant provisions one tenant: derive its profile and fault plan,
// create its warehouse, open its lazily-chunked workload stream, and
// arm the optimizer attach at the attach epoch.
func newTenant(idx int, id string, seed int64, cfg Config) *tenant {
	t := &tenant{idx: idx, id: id, seed: seed}
	t.sched = simclock.NewScheduler(seed)
	// The profile is derived before the backend so the backend draw can
	// clamp it; both use their own named streams, so adding a backend
	// pool later never shifts the profile a seed produces.
	t.prof = deriveProfile(t.sched.Rand("fleet:profile"))
	bk, bkErr := deriveBackend(t.sched.Rand("fleet:backend"), cfg.Backends, &t.prof)
	if bkErr != nil {
		// Unreachable after withDefaults validation, but a provisioning
		// path must fail closed, not panic.
		t.attachErr = fmt.Errorf("tenant %s: backend: %w", id, bkErr)
		bk = cdw.DefaultBackend()
	}
	t.profText = t.prof.String()
	t.replayCmd = replayCommand(cfg, idx, seed)
	t.acct = cdw.NewAccountWithBackend(t.sched, cfg.Params, bk)
	t.store = telemetry.NewStore()
	t.hub = obs.NewHub(t.sched.Now)
	t.events = sha256.New()
	t.hub.Bus.SetOutput(t.events)
	t.acct.SetObs(t.hub)
	t.store.SetObs(t.hub)
	t.acct.Subscribe(t.store)
	// Prime one sample per catalog family under this tenant's warehouse
	// label sets, register the epoch recorder, and pre-touch the SLO
	// gauges — so the merged fleet exposition carries every family for
	// every tenant from the first scrape (kwo-obscheck -tenants checks
	// exactly this). Priming creates zero-valued series only; it cannot
	// perturb behaviour or fingerprints.
	t.hub.Prime(warehouseName)
	t.rec = obs.NewRecorder(t.hub, obs.FleetSpecs(), cfg.SeriesBudget)
	t.objs = cfg.SLO.Objectives()
	for _, o := range t.objs {
		t.hub.SLOBurn.With(o.Name)
		t.hub.SLOPass.With(o.Name)
	}
	t.evaluate()

	t.start = t.sched.Now()
	horizon := time.Duration(cfg.Epochs) * cfg.EpochLen
	t.attachAt = t.start.Add(time.Duration(cfg.AttachEpoch) * cfg.EpochLen)

	t.plan = deriveFaultPlan(t.sched.Rand("fleet:faults"), cfg.FaultRate)
	for _, f := range cfg.FaultTenants {
		if f == idx {
			t.plan = forcedFaultPlan(t.attachAt, t.attachAt.Add(4*cfg.EpochLen))
		}
	}
	if t.plan != nil {
		t.acct.SetFaults(*t.plan)
	}

	if _, err := t.acct.CreateWarehouse(cdw.Config{
		Name:        warehouseName,
		Size:        t.prof.Size,
		MinClusters: 1,
		MaxClusters: t.prof.MaxClusters,
		Policy:      cdw.ScaleStandard,
		AutoSuspend: t.prof.AutoSuspend,
		AutoResume:  t.prof.AutoResume,
	}); err != nil {
		t.attachErr = fmt.Errorf("tenant %s: create warehouse: %w", id, err)
		return t
	}

	// The workload stream is pulled chunk-by-chunk from a cursor as
	// epochs advance (see provisionTo) instead of materializing the
	// whole horizon here: resident arrivals stay O(epoch) per tenant.
	// The chunks concatenate to exactly the arrivals of a whole-horizon
	// Generate on the same seeded stream (workload.Cursor's contract).
	gen := t.prof.generator()
	t.horizonEnd = t.start.Add(horizon)
	// The workload source is wrapped to count draws — the checkpointed
	// RNG stream position. The wrapper delegates both Int63 and Uint64,
	// so the stream is bit-identical to the plain Rand derivation.
	t.wdraws = &countingSource{src: rand.NewSource(t.sched.SeedFor("fleet:workload:" + gen.Name())).(rand.Source64)}
	wrng := rand.New(t.wdraws)
	t.cursor = workload.NewCursor(gen, t.start, t.horizonEnd, wrng)

	opts := cfg.Opts
	opts.Obs = t.hub
	t.eng = core.NewEngineWithStore(t.acct, t.store, opts)
	t.sched.Schedule(t.attachAt, "fleet:attach", func() {
		settings := core.WarehouseSettings{Slider: t.prof.Slider}
		if _, err := t.eng.Attach(warehouseName, settings); err != nil {
			t.attachErr = fmt.Errorf("tenant %s: attach: %w", id, err)
			return
		}
		t.eng.Start()
	})
	// The panic probe: a scheduled event that panics mid-way through the
	// configured epoch, exercising the fleet's quarantine boundary on
	// demand. Scheduling it shifts later events' tie-break sequence
	// numbers uniformly (relative order is preserved) and draws from no
	// RNG stream, so behaviour before the probe fires is unperturbed.
	for _, pi := range cfg.PanicTenants {
		if pi == idx {
			at := t.start.Add(time.Duration(cfg.PanicEpoch-1)*cfg.EpochLen + cfg.EpochLen/2)
			t.sched.Schedule(at, "fleet:panic-probe", func() {
				panic(fmt.Sprintf("fleet: tenant %s panic probe (epoch %d)", id, cfg.PanicEpoch))
			})
		}
	}
	return t
}

// quarantined reports whether the tenant has been frozen out.
func (t *tenant) quarantined() bool { return t.quar.Load() }

// quarantineNow freezes the tenant: records the epoch and reason,
// computes its final KPI row defensively (the tenant may have panicked
// mid-step), and publishes the quarantined flag. Called from an epoch
// worker; the fields-then-flag write order is what makes the concurrent
// handler reads safe.
func (t *tenant) quarantineNow(epoch int, reason string) {
	t.qEpoch = epoch
	t.qReason = reason
	t.frozen = t.freezeKPI(epoch, reason)
	t.quar.Store(true)
}

// restoreQuarantine re-installs a quarantine recorded in a checkpoint
// without re-executing the failure.
func (t *tenant) restoreQuarantine(rq *resumeQuarantine) {
	t.qEpoch = rq.epoch
	t.qReason = rq.reason
	k := *rq.kpi
	t.frozen = &k
	t.quar.Store(true)
}

// freezeKPI computes the quarantined tenant's last-known KPI row. The
// computation itself runs behind a recover — a tenant that panicked
// mid-step may not be able to answer every question — falling back to
// an identity-only row rather than taking the fleet down twice.
func (t *tenant) freezeKPI(epoch int, reason string) *TenantKPI {
	k := TenantKPI{Tenant: t.id, Index: t.idx, Seed: t.seed, Profile: t.profText}
	func() {
		defer func() {
			if r := recover(); r != nil {
				k.Err = fmt.Sprintf("kpi after quarantine: %v", r)
			}
		}()
		k = t.kpiNow()
	}()
	k.Quarantined = true
	k.QuarantineEpoch = epoch
	k.QuarantineReason = reason
	return &k
}

// advanceTo provisions the next workload chunk and runs the tenant's
// simulation up to the epoch boundary.
func (t *tenant) advanceTo(target time.Time) {
	t.provisionTo(target)
	t.sched.RunUntil(target)
}

// provisionTo schedules the arrival chunk [now, target) from the
// tenant's workload cursor. Every arrival in the chunk is at or after
// the tenant's current time (the cursor's chunk-containment contract),
// so nothing is dropped; on the final epoch the cursor also flushes
// jitter overflow past the horizon (those trailing events are
// scheduled but never run).
func (t *tenant) provisionTo(target time.Time) {
	if t.cursor == nil {
		return
	}
	arr := t.cursor.Next(target)
	n, _ := workload.Drive(t.sched, t.acct, warehouseName, arr)
	t.scheduled += n
	if !target.Before(t.horizonEnd) {
		t.cursor = nil
	}
}

// sample takes the tenant's epoch-boundary sample: the recorder
// appends one point per series, returning the raw per-spec values, and
// the objectives are re-evaluated over the updated series.
func (t *tenant) sample(at time.Time) []float64 {
	vals := t.rec.Sample(at)
	t.evaluate()
	return vals
}

// evaluate stores the tenant's SLO verdicts over its recorded series.
// Series change only on an epoch-boundary sample, so the stored slice
// is what every read path serves — KPI rows, /fleet/slo, the alert
// tracker, the finalize gauges — until the next sample replaces it.
// It is replaced, never mutated: KPI rows, frozen quarantine rows
// among them, keep pointing at the slice they were built from.
func (t *tenant) evaluate() {
	t.slo = obs.Evaluate(t.objs, t.rec.Series)
}

// finalize stops the optimizer loops after the last epoch and mirrors
// the stored verdicts onto the hub gauges.
func (t *tenant) finalize() {
	if t.eng != nil {
		t.eng.Stop()
	}
	obs.PublishSLO(t.hub, t.slo)
}

// eventsSum returns the hex SHA-256 of every trace event's JSON line so
// far: the tenant's events fingerprint. Read it on an epoch barrier,
// when no worker is emitting.
func (t *tenant) eventsSum() string { return hex.EncodeToString(t.events.Sum(nil)) }

// kpi rolls the tenant's run up into one report row. A quarantined
// tenant reports the KPI frozen at its quarantine epoch — its series,
// fingerprints, and SLO verdicts stop evolving the moment it left the
// fleet.
func (t *tenant) kpi() TenantKPI {
	if t.quarantined() {
		return *t.frozen
	}
	return t.kpiNow()
}

// kpiNow assembles the row from live tenant state.
func (t *tenant) kpiNow() TenantKPI {
	now := t.sched.Now()
	k := TenantKPI{
		Tenant:  t.id,
		Index:   t.idx,
		Seed:    t.seed,
		Profile: t.profText,
	}
	if t.attachErr != nil {
		k.Err = t.attachErr.Error()
		return k
	}
	stats := t.store.Log(warehouseName).Stats(t.start, now)
	k.Queries = stats.Queries
	k.P99Latency = stats.P99Latency
	if wh, err := t.acct.Warehouse(warehouseName); err == nil {
		k.ActualCredits = wh.Meter().CreditsBetween(t.attachAt, now, now)
	}
	if actual, without, err := t.eng.EstimateSavings(warehouseName, t.attachAt, now); err == nil {
		k.ModelReady = true
		k.ActualCredits = actual
		k.WithoutKeebo = without
		if s := without - actual; s > 0 {
			k.Savings = s
		}
		if without > 0 {
			k.SavingsPercent = 100 * k.Savings / without
		}
	}
	if h, err := t.eng.Health(warehouseName); err == nil {
		k.Degraded = h.Degraded
		k.DegradedTicks = h.DegradedTicks
		k.Recoveries = h.Recoveries
	}
	k.ActionsApplied = t.eng.Actuator().AppliedCount()
	k.Invoices = len(t.eng.Ledger().Invoices())
	k.SLO = t.slo
	k.SLOFailed = obs.FailedObjectives(k.SLO)
	k.SLOPass = len(k.SLOFailed) == 0
	k.SLOWorstBurn = obs.WorstBurn(k.SLO)
	k.Faults = t.acct.FaultCounts()
	k.ObsEvents = t.hub.Bus.Total()
	k.EventsFingerprint = t.eventsSum()
	if snap, err := t.store.SnapshotBytes(); err == nil {
		sum := sha256.Sum256(snap)
		k.SnapshotFingerprint = hex.EncodeToString(sum[:])
	}
	return k
}
