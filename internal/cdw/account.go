package cdw

import (
	"fmt"
	"math/rand"
	"time"

	"kwo/internal/cdw/backend"
	"kwo/internal/obs"
	"kwo/internal/simclock"
)

// EventKind classifies warehouse lifecycle events.
type EventKind int

const (
	EventResume EventKind = iota
	EventSuspend
	EventClusterStart
	EventClusterStop
)

// String returns a stable lowercase name for the event kind.
func (k EventKind) String() string {
	switch k {
	case EventResume:
		return "resume"
	case EventSuspend:
		return "suspend"
	case EventClusterStart:
		return "cluster-start"
	case EventClusterStop:
		return "cluster-stop"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// WarehouseEvent is a lifecycle transition visible in telemetry.
type WarehouseEvent struct {
	Time      time.Time
	Warehouse string
	Kind      EventKind
	Clusters  int // active clusters after the event
}

// ConfigChange is one row of the configuration audit log. Actor records
// who made the change, which is how the monitor distinguishes KWO's own
// actions from external changes made by other users (§4.4).
type ConfigChange struct {
	Time      time.Time
	Warehouse string
	Before    Config
	After     Config
	Actor     string
	Statement string // the rendered ALTER statement
}

// Listener receives telemetry as the simulation runs. Implementations
// must not mutate the account from inside callbacks.
type Listener interface {
	OnQuery(QueryRecord)
	OnChange(ConfigChange)
	OnWarehouseEvent(WarehouseEvent)
}

// Account is a simulated CDW account holding multiple virtual
// warehouses, the equivalent of one Snowflake account. All interaction
// — query submission, ALTER statements, billing reads — goes through it.
type Account struct {
	sched       *simclock.Scheduler
	params      SimParams
	backend     backend.Backend
	warehouses  map[string]*Warehouse
	names       []string // insertion order, for deterministic iteration
	listeners   []Listener
	changes     []ConfigChange
	overhead    []OverheadRecord
	nextQueryID uint64

	// faults, when non-nil, makes the account's API surface misbehave on
	// demand (see faults.go). faultRng drives the probabilistic faults
	// from the scheduler's seeded stream so runs stay deterministic.
	faults      *FaultPlan
	faultRng    *rand.Rand
	faultCounts FaultCounts

	// hub, when set, mirrors injected faults, audit-log writes, and
	// optimizer overhead into the observability registry and event bus.
	hub *obs.Hub
}

// OverheadRecord meters credits consumed by the optimizer itself
// (telemetry pulls, actuator statements) rather than by user queries.
type OverheadRecord struct {
	Time    time.Time
	Credits float64
	Note    string
}

// NewAccount creates an account driven by the given scheduler, running
// against the default (Snowflake-shaped) backend.
func NewAccount(sched *simclock.Scheduler, params SimParams) *Account {
	return NewAccountWithBackend(sched, params, DefaultBackend())
}

// NewAccountWithBackend creates an account whose control-plane surface
// — billing quanta, resume latency, capability gating — is defined by
// the given backend. A nil backend falls back to the default.
func NewAccountWithBackend(sched *simclock.Scheduler, params SimParams, b backend.Backend) *Account {
	if b == nil {
		b = DefaultBackend()
	}
	return &Account{
		sched:      sched,
		params:     params,
		backend:    b,
		warehouses: make(map[string]*Warehouse),
	}
}

// Scheduler returns the driving scheduler.
func (a *Account) Scheduler() *simclock.Scheduler { return a.sched }

// Params returns the account's physical constants.
func (a *Account) Params() SimParams { return a.params }

// Backend returns the account's control-plane backend.
func (a *Account) Backend() backend.Backend { return a.backend }

// Subscribe registers a telemetry listener.
func (a *Account) Subscribe(l Listener) { a.listeners = append(a.listeners, l) }

// SetObs wires the observability hub; nil (the default) disables the
// account-side instrumentation.
func (a *Account) SetObs(h *obs.Hub) { a.hub = h }

// noteFault counts an injected fault and traces it.
func (a *Account) noteFault(kind, warehouse, op string) {
	if a.hub == nil {
		return
	}
	a.hub.FaultsInjected.With(kind).Inc()
	a.hub.Emit(obs.EventFaultInjected, warehouse, obs.A("kind", kind), obs.A("op", op))
}

// SetFaults installs a fault plan on the account's API surface. Passing
// the zero plan effectively disables injection again (no outage windows,
// zero rates).
func (a *Account) SetFaults(plan FaultPlan) {
	p := plan
	a.faults = &p
	if a.faultRng == nil {
		a.faultRng = a.sched.Rand("cdw:faults")
	}
}

// Faults returns a copy of the installed fault plan, or nil.
func (a *Account) Faults() *FaultPlan {
	if a.faults == nil {
		return nil
	}
	p := *a.faults
	return &p
}

// FaultCounts reports how many faults the account has injected so far.
func (a *Account) FaultCounts() FaultCounts { return a.faultCounts }

// CreateWarehouse provisions a warehouse. Like Snowflake, a newly
// created warehouse starts running (and will auto-suspend if idle).
func (a *Account) CreateWarehouse(cfg Config) (*Warehouse, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := checkConfigCapabilities(a.backend, cfg); err != nil {
		return nil, err
	}
	if _, ok := a.warehouses[cfg.Name]; ok {
		return nil, fmt.Errorf("cdw: warehouse %s already exists", cfg.Name)
	}
	w := newWarehouse(a, cfg, false)
	a.warehouses[cfg.Name] = w
	a.names = append(a.names, cfg.Name)
	return w, nil
}

// Warehouse returns a warehouse by name.
func (a *Account) Warehouse(name string) (*Warehouse, error) {
	w, ok := a.warehouses[name]
	if !ok {
		return nil, fmt.Errorf("cdw: no warehouse named %s", name)
	}
	return w, nil
}

// WarehouseNames lists warehouses in creation order.
func (a *Account) WarehouseNames() []string {
	out := make([]string, len(a.names))
	copy(out, a.names)
	return out
}

// Submit routes a query to the named warehouse, assigning it an ID.
func (a *Account) Submit(warehouse string, q Query) error {
	w, err := a.Warehouse(warehouse)
	if err != nil {
		return err
	}
	a.nextQueryID++
	q.ID = a.nextQueryID
	return w.Submit(q)
}

// Alter applies an ALTER WAREHOUSE-style change on behalf of actor.
// The change is recorded in the audit log whether or not any field
// actually changed, matching how real accounts log every statement.
func (a *Account) Alter(warehouse string, alt Alteration, actor string) error {
	w, err := a.Warehouse(warehouse)
	if err != nil {
		return err
	}
	ackLost := false
	if a.faults != nil {
		now := a.sched.Now()
		fail, lost := a.faults.alterFault(now, a.faultRng)
		if fail {
			a.faultCounts.AlterFailures++
			reason := "injected"
			for _, o := range a.faults.AlterOutages {
				if o.Contains(now) {
					reason = "outage"
				}
			}
			a.noteFault("alter-fail", warehouse, "alter")
			return &TransientError{Op: "alter", Reason: reason}
		}
		ackLost = lost
	}
	if err := checkAlterationCapabilities(a.backend, w.cfg, alt); err != nil {
		return err
	}
	before := w.cfg
	if err := w.applyAlteration(alt); err != nil {
		return err
	}
	ch := ConfigChange{
		Time:      a.sched.Now(),
		Warehouse: warehouse,
		Before:    before,
		After:     w.cfg,
		Actor:     actor,
		Statement: alt.String(),
	}
	a.changes = append(a.changes, ch)
	if a.hub != nil {
		a.hub.ConfigChanges.With(warehouse, actor).Inc()
	}
	for _, l := range a.listeners {
		l.OnChange(ch)
	}
	if ackLost {
		a.faultCounts.AlterAckLosts++
		a.noteFault("alter-ack-lost", warehouse, "alter")
		return &TransientError{Op: "alter", Reason: "timeout", AckLost: true}
	}
	return nil
}

// BillingHistory reads a warehouse's hourly billing rows over [from, to)
// the way a live deployment would: through the account's fault model.
// It returns the rows actually available and a watermark — the end of
// the span the rows cover; callers must only advance their pull cursor
// to the watermark, never to the requested end, or delayed hours are
// silently lost. With no fault plan the watermark is to and the rows are
// exactly Meter().Hourly(from, to, now).
func (a *Account) BillingHistory(warehouse string, from, to time.Time) ([]HourlyRecord, time.Time, error) {
	w, err := a.Warehouse(warehouse)
	if err != nil {
		return nil, from, err
	}
	now := a.sched.Now()
	if a.faults != nil {
		for _, o := range a.faults.BillingOutages {
			if o.Contains(now) {
				a.faultCounts.BillingFailures++
				a.noteFault("billing-fail", warehouse, "billing-history")
				return nil, from, &TransientError{Op: "billing-history", Reason: "outage"}
			}
		}
		if lag := a.faults.BillingLag; lag > 0 && a.faults.ratesActive(now) {
			if avail := now.Add(-lag).Truncate(time.Hour); avail.Before(to) {
				to = avail
			}
		}
	}
	if !to.After(from) {
		return nil, from, nil
	}
	return w.Meter().Hourly(from, to, now), to, nil
}

// Changes returns the configuration audit log.
func (a *Account) Changes() []ConfigChange {
	out := make([]ConfigChange, len(a.changes))
	copy(out, a.changes)
	return out
}

// RecordOverhead meters credits consumed by the optimizer's own
// operations. The paper's Figure 6 reports this overhead separately
// from user spend.
func (a *Account) RecordOverhead(credits float64, note string) {
	a.overhead = append(a.overhead, OverheadRecord{
		Time: a.sched.Now(), Credits: credits, Note: note,
	})
	if a.hub != nil {
		a.hub.OverheadCredits.With(note).Add(credits)
	}
}

// OverheadBetween sums optimizer overhead credits in [from, to).
func (a *Account) OverheadBetween(from, to time.Time) float64 {
	var total float64
	for _, r := range a.overhead {
		if !r.Time.Before(from) && r.Time.Before(to) {
			total += r.Credits
		}
	}
	return total
}

// TotalCredits sums billed credits across all warehouses up to now.
func (a *Account) TotalCredits() float64 {
	now := a.sched.Now()
	var total float64
	for _, name := range a.names {
		total += a.warehouses[name].Meter().TotalCredits(now)
	}
	return total
}

func (a *Account) emitQuery(rec QueryRecord) {
	for _, l := range a.listeners {
		l.OnQuery(rec)
	}
}

func (a *Account) emitWarehouseEvent(ev WarehouseEvent) {
	for _, l := range a.listeners {
		l.OnWarehouseEvent(ev)
	}
}
