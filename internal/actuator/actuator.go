// Package actuator translates smart-model actions into the underlying
// CDW's API and executes them (§4.5). It is the abstraction layer that
// hides vendor-specific details from the smart models: actions go in,
// ALTER WAREHOUSE statements come out, and every execution (or failure)
// is recorded. It also meters its own (small) cost, which Figure 6
// reports as "Keebo overhead".
//
// Because no real CDW API succeeds instantly every time, the actuator
// owns the fault-handling policy for writes: transient failures are
// retried with capped exponential backoff plus jitter, retries reissue
// the exact absolute alteration computed at decision time (so a retry
// after a lost acknowledgment is idempotent instead of stepping the
// configuration twice), and a per-warehouse circuit breaker stops the
// engine from hammering an API that keeps failing. Every failure lands
// in a structured failure log alongside the action log.
package actuator

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"kwo/internal/action"
	"kwo/internal/cdw"
	"kwo/internal/obs"
	"kwo/internal/simclock"
)

// Actor is the identity under which KWO alters warehouses; the monitor
// uses it to tell KWO's own changes apart from external ones.
const Actor = "kwo"

// Sentinel errors for operations rejected before any API call.
var (
	// ErrPending rejects a new discretionary operation while a previous
	// one is still retrying: two in-flight writes to one warehouse could
	// interleave into a configuration neither decision intended.
	ErrPending = errors.New("actuator: a previous operation is still retrying")
	// ErrBreakerOpen rejects discretionary operations while the
	// warehouse's circuit breaker is open.
	ErrBreakerOpen = errors.New("actuator: circuit breaker open")
)

// RetryPolicy tunes the retry/backoff and circuit-breaker behaviour.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per operation (1 = no
	// retries).
	MaxAttempts int
	// BaseDelay is the delay before the first retry; each subsequent
	// retry doubles it, capped at MaxDelay.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// JitterFrac spreads each delay uniformly in ±JitterFrac around its
	// nominal value, so synchronized retry storms cannot form.
	JitterFrac float64
	// BreakerThreshold is how many consecutive operations must exhaust
	// their retries before the warehouse's circuit breaker opens.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects discretionary
	// operations before allowing a probe.
	BreakerCooldown time.Duration
}

// DefaultRetryPolicy returns production-plausible fault handling: four
// attempts spread over a few minutes, then a 45-minute breaker after two
// consecutively abandoned operations.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts:      4,
		BaseDelay:        30 * time.Second,
		MaxDelay:         8 * time.Minute,
		JitterFrac:       0.2,
		BreakerThreshold: 2,
		BreakerCooldown:  45 * time.Minute,
	}
}

// delay computes the backoff before retrying after the given (1-based)
// failed attempt.
func (p RetryPolicy) delay(attempt int, rng *rand.Rand) time.Duration {
	d := p.BaseDelay
	if d <= 0 {
		d = 30 * time.Second
	}
	for i := 1; i < attempt && d < p.MaxDelay; i++ {
		d *= 2
	}
	if p.MaxDelay > 0 && d > p.MaxDelay {
		d = p.MaxDelay
	}
	if p.JitterFrac > 0 && rng != nil {
		d = time.Duration(float64(d) * (1 + p.JitterFrac*(2*rng.Float64()-1)))
	}
	if d < time.Second {
		d = time.Second
	}
	return d
}

// Record is one row of the action log: one attempt against the API.
type Record struct {
	Time      time.Time
	Action    action.Action
	Statement string
	Applied   bool   // false for no-effect or failed attempts
	Err       string // non-empty on failure
	Reason    string // free-text: "smart-model", "revert", "constraint", ...
	// OpID groups the attempts of one logical operation; Attempt is the
	// 1-based attempt number within it. OpID 0 marks rows that never
	// reached the API (no-ops, rejections).
	OpID    uint64
	Attempt int
}

// FailureKind classifies failure-log entries.
type FailureKind int

const (
	// FailTransient is one failed attempt; a retry is scheduled (or the
	// operation is about to be abandoned).
	FailTransient FailureKind = iota
	// FailExhausted marks an operation abandoned after MaxAttempts.
	FailExhausted
	// FailPermanent marks a non-retryable failure (validation, unknown
	// warehouse).
	FailPermanent
	// FailBreakerOpened records the circuit breaker opening.
	FailBreakerOpened
	// FailRejectedBreaker rejects an operation while the breaker is open.
	FailRejectedBreaker
	// FailRejectedPending rejects an operation while another retries.
	FailRejectedPending
	// FailSuperseded marks a retrying operation cancelled because
	// constraint enforcement outranked it.
	FailSuperseded
	// FailRetryAborted marks a retry cancelled by the retry gate: the
	// decision was legal when made, but the world changed while the
	// operation waited out its backoff (e.g. a no-downsize window
	// opened), so reissuing it would violate policy now.
	FailRetryAborted
	// FailIngest records a telemetry/billing-history pull failure the
	// engine reported via NoteIngestFailure.
	FailIngest
)

// String names the failure kind.
func (k FailureKind) String() string {
	switch k {
	case FailTransient:
		return "transient"
	case FailExhausted:
		return "exhausted"
	case FailPermanent:
		return "permanent"
	case FailBreakerOpened:
		return "breaker-opened"
	case FailRejectedBreaker:
		return "rejected-breaker"
	case FailRejectedPending:
		return "rejected-pending"
	case FailSuperseded:
		return "superseded"
	case FailRetryAborted:
		return "retry-aborted"
	case FailIngest:
		return "ingest"
	default:
		return fmt.Sprintf("FailureKind(%d)", int(k))
	}
}

// Failure is one row of the structured failure log.
type Failure struct {
	Time      time.Time
	Warehouse string
	Kind      FailureKind
	OpID      uint64
	Attempt   int
	Reason    string // the actuation reason of the operation
	Statement string
	Err       string
	// AckLost reports the attempt may have taken effect despite the
	// error (the retry must therefore be idempotent).
	AckLost bool
}

func (f Failure) String() string {
	return fmt.Sprintf("[%s] %s op=%d attempt=%d %s %s: %s",
		f.Time.Format("Mon 15:04:05"), f.Kind, f.OpID, f.Attempt, f.Warehouse, f.Statement, f.Err)
}

// op is one logical operation: an exact alteration retried as-is until
// it lands or is abandoned.
type op struct {
	id      uint64
	act     action.Action
	alt     cdw.Alteration
	reason  string
	note    string // overhead-metering note
	attempt int
}

// whState is the actuator's per-warehouse fault-handling state.
type whState struct {
	pending         *op
	consecExhausted int
	openUntil       time.Time
}

// Actuator executes actions against a simulated account.
type Actuator struct {
	acct  *cdw.Account
	sched *simclock.Scheduler
	// OverheadPerOp is the credit cost KWO's own operations incur
	// (metadata queries, ALTER statements). The paper engineers this
	// to be negligible; it is metered so Figure 6 can prove it.
	OverheadPerOp float64

	policy RetryPolicy
	rng    *rand.Rand
	hub    *obs.Hub

	log      []Record
	failures []Failure
	states   map[string]*whState
	opSeq    uint64

	// onApplied, when set, is invoked for operations that land on an
	// asynchronous retry (attempt > 1) — the synchronous caller already
	// saw the first attempt's result and is long gone.
	onApplied func(warehouse, reason string, act action.Action, after cdw.Config)
	// retryGate, when set, is consulted before every asynchronous retry.
	// Returning false abandons the operation: the alteration was legal
	// when decided, but policy may have changed while it waited out its
	// backoff.
	retryGate func(warehouse, reason string, alt cdw.Alteration) bool
}

// New creates an actuator bound to an account, with the default retry
// policy.
func New(acct *cdw.Account, overheadPerOp float64) *Actuator {
	return &Actuator{
		acct:          acct,
		sched:         acct.Scheduler(),
		OverheadPerOp: overheadPerOp,
		policy:        DefaultRetryPolicy(),
		rng:           acct.Scheduler().Rand("actuator:retry"),
		states:        make(map[string]*whState),
	}
}

// SetObs wires the observability hub. The actuator emits action,
// retry, and breaker metrics and events through it; a nil hub (the
// default) disables instrumentation.
func (a *Actuator) SetObs(h *obs.Hub) { a.hub = h }

// noteFailure appends to the structured failure log and mirrors the
// row into the obs registry; abandonment kinds also land on the event
// bus so operators see them without polling Failures().
func (a *Actuator) noteFailure(f Failure) {
	a.failures = append(a.failures, f)
	if a.hub == nil {
		return
	}
	a.hub.ActionFailures.With(f.Warehouse, f.Kind.String()).Inc()
	switch f.Kind {
	case FailExhausted, FailPermanent, FailSuperseded, FailRetryAborted:
		a.hub.Emit(obs.EventActionFailed, f.Warehouse,
			obs.A("kind", f.Kind.String()),
			obs.A("reason", f.Reason),
			obs.A("statement", f.Statement),
			obs.AInt("attempt", f.Attempt),
			obs.A("err", f.Err))
	case FailIngest:
		a.hub.Emit(obs.EventIngestFailed, f.Warehouse, obs.A("err", f.Err))
	}
}

// SetRetryPolicy replaces the retry policy.
func (a *Actuator) SetRetryPolicy(p RetryPolicy) {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	a.policy = p
}

// SetOnApplied registers the callback invoked when an operation lands on
// an asynchronous retry.
func (a *Actuator) SetOnApplied(fn func(warehouse, reason string, act action.Action, after cdw.Config)) {
	a.onApplied = fn
}

// SetRetryGate registers the policy recheck consulted before every
// asynchronous retry.
func (a *Actuator) SetRetryGate(fn func(warehouse, reason string, alt cdw.Alteration) bool) {
	a.retryGate = fn
}

func (a *Actuator) state(warehouse string) *whState {
	ws, ok := a.states[warehouse]
	if !ok {
		ws = &whState{}
		a.states[warehouse] = ws
	}
	return ws
}

// Pending reports whether an operation against the warehouse is still
// retrying.
func (a *Actuator) Pending(warehouse string) bool {
	ws, ok := a.states[warehouse]
	return ok && ws.pending != nil
}

// BreakerOpen reports whether the warehouse's circuit breaker currently
// rejects discretionary operations.
func (a *Actuator) BreakerOpen(warehouse string) bool {
	ws, ok := a.states[warehouse]
	return ok && a.sched.Now().Before(ws.openUntil)
}

// Apply executes a smart-model action. No-effect actions (clamped at a
// bound, or NoOp) are logged but not sent to the warehouse, so they
// cost nothing. Returns whether the action changed anything. A transient
// API failure schedules retries of the exact alteration; the eventual
// outcome is reported through the failure log and the OnApplied
// callback.
func (a *Actuator) Apply(act action.Action, reason string) (bool, error) {
	now := a.sched.Now()
	rec := Record{Time: now, Action: act, Reason: reason}
	if act.Kind == action.NoOp {
		a.log = append(a.log, rec)
		return false, nil
	}
	ws := a.state(act.Warehouse)
	if ws.pending != nil {
		rec.Err = ErrPending.Error()
		a.log = append(a.log, rec)
		a.noteFailure(Failure{
			Time: now, Warehouse: act.Warehouse, Kind: FailRejectedPending,
			OpID: ws.pending.id, Reason: reason, Err: ErrPending.Error(),
		})
		return false, ErrPending
	}
	if now.Before(ws.openUntil) {
		rec.Err = ErrBreakerOpen.Error()
		a.log = append(a.log, rec)
		a.noteFailure(Failure{
			Time: now, Warehouse: act.Warehouse, Kind: FailRejectedBreaker,
			Reason: reason, Err: ErrBreakerOpen.Error(),
		})
		return false, ErrBreakerOpen
	}
	wh, err := a.acct.Warehouse(act.Warehouse)
	if err != nil {
		rec.Err = err.Error()
		a.log = append(a.log, rec)
		return false, err
	}
	alt := act.Alteration(wh.Config())
	if alt.IsZero() {
		a.log = append(a.log, rec)
		return false, nil
	}
	a.opSeq++
	o := &op{id: a.opSeq, act: act, alt: alt, reason: reason, note: act.Kind.String()}
	applied, err := a.attempt(ws, o)
	if err != nil {
		return false, fmt.Errorf("actuator: apply %v to %s: %w", act.Kind, act.Warehouse, err)
	}
	return applied, nil
}

// ApplyAlteration executes a raw alteration (constraint enforcement or
// a revert to a remembered configuration). Enforcement is the priority
// action class: it supersedes a retrying discretionary operation and is
// not subject to the circuit breaker.
func (a *Actuator) ApplyAlteration(warehouse string, alt cdw.Alteration, reason string) error {
	now := a.sched.Now()
	rec := Record{
		Time:      now,
		Action:    action.Action{Kind: action.NoOp, Warehouse: warehouse},
		Statement: alt.String(),
		Reason:    reason,
	}
	if alt.IsZero() {
		a.log = append(a.log, rec)
		return nil
	}
	ws := a.state(warehouse)
	if ws.pending != nil {
		a.noteFailure(Failure{
			Time: now, Warehouse: warehouse, Kind: FailSuperseded,
			OpID: ws.pending.id, Attempt: ws.pending.attempt,
			Reason: ws.pending.reason, Statement: ws.pending.alt.String(),
			Err: "superseded by " + reason,
		})
		ws.pending = nil
		a.setPendingGauge(warehouse, 0)
	}
	a.opSeq++
	o := &op{
		id:     a.opSeq,
		act:    action.Action{Kind: action.NoOp, Warehouse: warehouse},
		alt:    alt,
		reason: reason,
		note:   reason,
	}
	if _, err := a.attempt(ws, o); err != nil {
		return fmt.Errorf("actuator: %s on %s: %w", reason, warehouse, err)
	}
	return nil
}

// attempt runs one try of an operation: it meters overhead, calls the
// API, and on transient failure schedules the next try on the simulated
// clock. Asynchronous retries land here again with nobody waiting on the
// return value.
func (a *Actuator) attempt(ws *whState, o *op) (bool, error) {
	o.attempt++
	now := a.sched.Now()
	rec := Record{
		Time: now, Action: o.act, Statement: o.alt.String(), Reason: o.reason,
		OpID: o.id, Attempt: o.attempt,
	}
	a.acct.RecordOverhead(a.OverheadPerOp, "actuator:"+o.note)
	if a.hub != nil {
		a.hub.ActionAttempts.With(o.act.Warehouse).Inc()
	}
	err := a.acct.Alter(o.act.Warehouse, o.alt, Actor)
	if err == nil {
		rec.Applied = true
		a.log = append(a.log, rec)
		ws.pending = nil
		ws.consecExhausted = 0
		if a.hub != nil {
			a.setPendingGauge(o.act.Warehouse, 0)
			a.hub.ActionsApplied.With(o.act.Warehouse, o.reason).Inc()
			a.hub.Emit(obs.EventActionApplied, o.act.Warehouse,
				obs.A("statement", o.alt.String()),
				obs.A("reason", o.reason),
				obs.AInt("attempt", o.attempt))
		}
		if o.attempt > 1 && a.onApplied != nil {
			if wh, werr := a.acct.Warehouse(o.act.Warehouse); werr == nil {
				a.onApplied(o.act.Warehouse, o.reason, o.act, wh.Config())
			}
		}
		return true, nil
	}
	rec.Err = err.Error()
	a.log = append(a.log, rec)
	fail := Failure{
		Time: now, Warehouse: o.act.Warehouse, OpID: o.id, Attempt: o.attempt,
		Reason: o.reason, Statement: o.alt.String(), Err: err.Error(),
		AckLost: cdw.AckLost(err),
	}
	if !cdw.IsTransient(err) {
		ws.pending = nil
		a.setPendingGauge(o.act.Warehouse, 0)
		fail.Kind = FailPermanent
		a.noteFailure(fail)
		return false, err
	}
	fail.Kind = FailTransient
	a.noteFailure(fail)
	if o.attempt >= a.policy.MaxAttempts {
		ws.pending = nil
		a.setPendingGauge(o.act.Warehouse, 0)
		ws.consecExhausted++
		a.noteFailure(Failure{
			Time: now, Warehouse: o.act.Warehouse, OpID: o.id, Attempt: o.attempt,
			Kind: FailExhausted, Reason: o.reason, Statement: o.alt.String(),
			Err: fmt.Sprintf("abandoned after %d attempts: %v", o.attempt, err),
		})
		if a.policy.BreakerThreshold > 0 && ws.consecExhausted >= a.policy.BreakerThreshold &&
			!now.Before(ws.openUntil) {
			ws.openUntil = now.Add(a.policy.BreakerCooldown)
			a.noteFailure(Failure{
				Time: now, Warehouse: o.act.Warehouse, Kind: FailBreakerOpened,
				Err: fmt.Sprintf("open until %s after %d consecutive abandoned operations",
					ws.openUntil.Format("Mon 15:04:05"), ws.consecExhausted),
			})
			a.noteBreakerOpened(ws, o.act.Warehouse)
		}
		return false, fmt.Errorf("retries exhausted after %d attempts: %w", o.attempt, err)
	}
	ws.pending = o
	delay := a.policy.delay(o.attempt, a.rng)
	if a.hub != nil {
		a.setPendingGauge(o.act.Warehouse, 1)
		a.hub.ActionRetries.With(o.act.Warehouse).Inc()
		a.hub.RetryBackoff.With(o.act.Warehouse).Observe(delay.Seconds())
		a.hub.Emit(obs.EventActionRetried, o.act.Warehouse,
			obs.A("statement", o.alt.String()),
			obs.A("reason", o.reason),
			obs.AInt("attempt", o.attempt),
			obs.ADur("delay", delay))
	}
	a.sched.After(delay, "actuator-retry:"+o.act.Warehouse, func() {
		if ws.pending != o {
			return // superseded or cancelled
		}
		if a.retryGate != nil && !a.retryGate(o.act.Warehouse, o.reason, o.alt) {
			ws.pending = nil
			a.setPendingGauge(o.act.Warehouse, 0)
			a.noteFailure(Failure{
				Time: a.sched.Now(), Warehouse: o.act.Warehouse, Kind: FailRetryAborted,
				OpID: o.id, Attempt: o.attempt, Reason: o.reason, Statement: o.alt.String(),
				Err: "retry aborted: policy no longer allows the alteration",
			})
			return
		}
		a.attempt(ws, o)
	})
	return false, err
}

// setPendingGauge mirrors whState.pending into the obs registry.
func (a *Actuator) setPendingGauge(warehouse string, v float64) {
	if a.hub != nil {
		a.hub.RetryPending.With(warehouse).Set(v)
	}
}

// noteBreakerOpened emits the breaker-open transition and schedules a
// pure-observer callback at the cooldown deadline that emits the close
// transition — so a breaker that opens and closes between two Health
// polls is still visible on the event bus. The callback mutates no
// warehouse or actuator state; determinism is unaffected.
func (a *Actuator) noteBreakerOpened(ws *whState, warehouse string) {
	if a.hub == nil {
		return
	}
	until := ws.openUntil
	a.hub.BreakerOpen.With(warehouse).Set(1)
	a.hub.BreakerTransitions.With(warehouse, "open").Inc()
	a.hub.Emit(obs.EventBreakerOpened, warehouse,
		obs.A("until", until.Format(time.RFC3339)),
		obs.AInt("consecutive_exhausted", ws.consecExhausted))
	a.sched.Schedule(until, "obs:breaker-close:"+warehouse, func() {
		// Skip if a later trip extended the window; that trip scheduled
		// its own close observer.
		if !ws.openUntil.Equal(until) {
			return
		}
		a.hub.BreakerOpen.With(warehouse).Set(0)
		a.hub.BreakerTransitions.With(warehouse, "closed").Inc()
		a.hub.Emit(obs.EventBreakerClosed, warehouse)
	})
}

// NoteIngestFailure records a telemetry/billing ingestion failure in the
// failure log — ingestion is read-path, so there is nothing to retry
// here (the engine re-pulls from its cursor on the next tick), but the
// failure must still be visible in one place alongside actuation
// failures.
func (a *Actuator) NoteIngestFailure(warehouse string, err error) {
	if a.hub != nil {
		a.hub.IngestFailures.With(warehouse).Inc()
	}
	a.noteFailure(Failure{
		Time: a.sched.Now(), Warehouse: warehouse, Kind: FailIngest, Err: err.Error(),
	})
}

// MeterTelemetryPull records the cost of one telemetry collection pass.
// Per §7.3, telemetry is obtained by "leveraging running warehouses ...
// without waking them" and by combining multiple queries into one, so
// the cost is a small constant.
func (a *Actuator) MeterTelemetryPull() {
	a.acct.RecordOverhead(a.OverheadPerOp, "telemetry-pull")
}

// Log returns a copy of the action log.
func (a *Actuator) Log() []Record {
	out := make([]Record, len(a.log))
	copy(out, a.log)
	return out
}

// Failures returns a copy of the structured failure log.
func (a *Actuator) Failures() []Failure {
	out := make([]Failure, len(a.failures))
	copy(out, a.failures)
	return out
}

// FailureCount returns the failure-log length without copying.
func (a *Actuator) FailureCount() int { return len(a.failures) }

// AppliedCount returns how many log entries actually changed the
// warehouse.
func (a *Actuator) AppliedCount() int {
	n := 0
	for _, r := range a.log {
		if r.Applied {
			n++
		}
	}
	return n
}
