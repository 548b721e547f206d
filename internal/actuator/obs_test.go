package actuator

import (
	"testing"
	"time"

	"kwo/internal/action"
	"kwo/internal/cdw"
	"kwo/internal/obs"
)

// TestBreakerEventsOpenAndCloseBetweenPolls pins the satellite
// regression: a breaker episode that opens AND closes inside one poll
// interval is invisible to the poll-only Health surface — BreakerOpen
// reads false both before and after — but the event bus must still
// record both transitions, and the gauge/counter pair must agree.
func TestBreakerEventsOpenAndCloseBetweenPolls(t *testing.T) {
	sched, acct, act := rig(t)
	hub := obs.NewHub(sched.Now)
	act.SetObs(hub)

	p := noJitter()
	p.MaxAttempts = 1 // no retries: each failed operation exhausts at once
	p.BreakerThreshold = 2
	p.BreakerCooldown = 5 * time.Minute
	act.SetRetryPolicy(p)

	start := sched.Now()
	acct.SetFaults(cdw.FaultPlan{
		AlterOutages: []cdw.FaultWindow{{From: start, To: start.Add(2 * time.Minute)}},
	})

	// Poll before: closed.
	if act.BreakerOpen("W") {
		t.Fatal("breaker open before any failure")
	}
	// Two consecutive exhausted operations trip the breaker.
	for i := 0; i < 2; i++ {
		if _, err := act.Apply(action.Action{Kind: action.SizeDown, Warehouse: "W"}, "smart-model"); err == nil {
			t.Fatal("apply inside the outage succeeded")
		}
	}
	if !act.BreakerOpen("W") {
		t.Fatal("breaker not open after two exhausted operations")
	}
	if v := hub.BreakerOpen.With("W").Value(); v != 1 {
		t.Fatalf("kwo_actuator_breaker_open gauge = %g while the breaker is open, want 1", v)
	}

	// One poll interval later the cooldown has expired: the poll sees
	// closed again, exactly as it did before the episode.
	sched.RunFor(10 * time.Minute)
	if act.BreakerOpen("W") {
		t.Fatal("breaker still open after the cooldown")
	}

	// The poll-only view missed the whole episode; the events must not.
	if got := hub.Bus.KindCount(obs.EventBreakerOpened); got != 1 {
		t.Fatalf("breaker-opened events = %d, want 1", got)
	}
	if got := hub.Bus.KindCount(obs.EventBreakerClosed); got != 1 {
		t.Fatalf("breaker-closed events = %d, want 1", got)
	}
	if v := hub.BreakerOpen.With("W").Value(); v != 0 {
		t.Fatalf("kwo_actuator_breaker_open gauge = %g after close, want 0", v)
	}
	if v := hub.Registry.CounterSum(obs.MetricBreakerTransitions); v != 2 {
		t.Fatalf("breaker transition counter sums to %g, want 2 (one open + one close)", v)
	}

	// Ordering sanity: opened strictly before closed, close at open+cooldown.
	evs := hub.Bus.Recent(obs.DefaultRingSize)
	var opened, closed *obs.Event
	for i := range evs {
		switch evs[i].Kind {
		case obs.EventBreakerOpened:
			opened = &evs[i]
		case obs.EventBreakerClosed:
			closed = &evs[i]
		}
	}
	if opened == nil || closed == nil {
		t.Fatal("missing breaker transition events")
	}
	if !closed.Time.Equal(opened.Time.Add(p.BreakerCooldown)) {
		t.Fatalf("breaker closed at %v, want exactly open (%v) + cooldown %v",
			closed.Time, opened.Time, p.BreakerCooldown)
	}
}

// TestFailureCounterMatchesLog pins the metric registry to the
// actuator's structured failure log under a lossy API: the per-kind
// failure counter must sum to exactly the log length.
func TestFailureCounterMatchesLog(t *testing.T) {
	sched, acct, act := rig(t)
	hub := obs.NewHub(sched.Now)
	act.SetObs(hub)
	act.SetRetryPolicy(noJitter())

	start := sched.Now()
	acct.SetFaults(cdw.FaultPlan{
		AlterOutages: []cdw.FaultWindow{{From: start, To: start.Add(3 * time.Minute)}},
	})
	if _, err := act.Apply(action.Action{Kind: action.SizeDown, Warehouse: "W"}, "smart-model"); err == nil {
		t.Fatal("apply inside the outage succeeded")
	}
	sched.RunFor(10 * time.Minute)

	if got, want := hub.Registry.CounterSum(obs.MetricActionFailures), float64(act.FailureCount()); got != want {
		t.Fatalf("kwo_action_failures_total sums to %g, failure log has %g rows", got, want)
	}
	if got, want := hub.Registry.CounterSum(obs.MetricActionsApplied), float64(act.AppliedCount()); got != want {
		t.Fatalf("kwo_actions_applied_total sums to %g, applied log has %g rows", got, want)
	}
}
