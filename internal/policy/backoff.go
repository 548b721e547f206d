package policy

import (
	"kwo/internal/action"
	"kwo/internal/monitor"
)

// Backoff is the self-correction state machine of §4.3/§4.4: after the
// smart model applies an action, the monitor's next snapshots decide
// whether the action "took" or must be rolled back. After a rollback
// the model stays conservative for a cooldown period.
type Backoff struct {
	// GuardTicks is how many decision ticks after an action the
	// monitor verdict can still trigger a revert of that action.
	GuardTicks int
	// CooldownTicks is how long to stay conservative after a revert.
	CooldownTicks int

	tick        int
	lastAction  action.Action
	lastTick    int
	hasLast     bool
	cooldownEnd int

	reverts int
}

// NewBackoff builds a controller with the given guard and cooldown.
func NewBackoff(guardTicks, cooldownTicks int) *Backoff {
	if guardTicks <= 0 {
		guardTicks = 2
	}
	if cooldownTicks <= 0 {
		cooldownTicks = 6
	}
	return &Backoff{GuardTicks: guardTicks, CooldownTicks: cooldownTicks}
}

// Decision is the backoff controller's verdict for one tick.
type Decision struct {
	// Revert, when non-nil, is the action that must be applied NOW to
	// undo the previous action (performance degraded inside its guard
	// window).
	Revert *action.Action
	// Conservative is true while in cooldown: the smart model must not
	// take cost-cutting actions, only no-ops or performance-restoring
	// ones.
	Conservative bool
}

// Tick advances the controller with the latest monitor snapshot. Call
// once per decision tick, before choosing the next action.
func (b *Backoff) Tick(snap monitor.Snapshot) Decision {
	b.tick++
	d := Decision{Conservative: b.tick <= b.cooldownEnd}
	if snap.Degraded && b.hasLast && b.tick-b.lastTick <= b.GuardTicks &&
		b.lastAction.Kind != action.NoOp {
		inv := action.Action{
			Kind:      b.lastAction.Kind.Inverse(),
			Warehouse: b.lastAction.Warehouse,
			Reverts:   true,
		}
		d.Revert = &inv
		d.Conservative = true
		b.cooldownEnd = b.tick + b.CooldownTicks
		b.hasLast = false
		b.reverts++
	} else if snap.Degraded {
		// Degradation not attributable to our own action (workload
		// spike): still go conservative, but nothing to revert.
		d.Conservative = true
		b.cooldownEnd = b.tick + b.CooldownTicks
	}
	return d
}

// Record notes the action applied this tick so a later degraded
// snapshot can revert it. Recording a NoOp clears the guard.
func (b *Backoff) Record(a action.Action) {
	if a.Kind == action.NoOp {
		return
	}
	b.lastAction = a
	b.lastTick = b.tick
	b.hasLast = true
}

// Reverts returns how many rollbacks the controller has issued.
func (b *Backoff) Reverts() int { return b.reverts }
