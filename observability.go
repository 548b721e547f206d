package kwo

import (
	"net/http"

	"kwo/internal/actuator"
	"kwo/internal/obs"
)

// Observability re-exports. The hub bundles the metrics registry and the
// structured event bus; one hub is shared by the simulation, the
// optimizer engine, and every instrumented subsystem underneath them.
type (
	// Obs is the observability hub: metrics registry + event bus.
	Obs = obs.Hub
	// ObsEvent is one structured trace event.
	ObsEvent = obs.Event
	// ObsEventKind names a trace-event type (obs.EventActionApplied, ...).
	ObsEventKind = obs.EventKind
	// ObsAttr is one key/value attribute on an event.
	ObsAttr = obs.Attr
	// ObsMetricSpec describes one cataloged metric family.
	ObsMetricSpec = obs.MetricSpec
)

// Obs returns the simulation's observability hub. Warehouse- and
// telemetry-level instrumentation (injected faults, audit writes, query
// latency histograms) lands here even before any optimizer exists;
// optimizers created by NewOptimizer join the same hub.
func (s *Simulation) Obs() *Obs { return s.hub }

// ObsHandler returns the ops HTTP handler for the simulation's hub:
// /metrics (Prometheus text), /events (JSONL tail), /healthz, and
// /debug/pprof. Serve it on a side port next to the Portal.
func (s *Simulation) ObsHandler() http.Handler { return obs.Handler(s.hub) }

// Obs returns the optimizer's observability hub (never nil). Unless
// Options.Obs overrode it, this is the owning simulation's hub.
func (o *Optimizer) Obs() *Obs { return o.engine.Obs() }

// ObsHandler returns the ops HTTP handler for the optimizer's hub.
func (o *Optimizer) ObsHandler() http.Handler { return obs.Handler(o.engine.Obs()) }

// ReliabilitySummary reconciles the actuator's failure log into
// operation-level outcomes. The raw failure log records every failed
// ATTEMPT, so an ALTER that fails twice and then lands contributes two
// rows while the operation itself succeeded; summing rows as "failures"
// double-counts recovered operations. This summary keeps the two axes
// separate: attempt-level noise vs. operation-level outcomes.
type ReliabilitySummary struct {
	// FailedAttempts counts transient attempt failures, including
	// attempts of operations that later succeeded.
	FailedAttempts int
	// OpsRecovered counts operations that failed at least once and were
	// eventually applied by a retry.
	OpsRecovered int
	// OpsAbandoned counts operations given up for good: retries
	// exhausted or a permanent (non-retryable) error.
	OpsAbandoned int
	// RetriesAborted counts scheduled retries cancelled because policy
	// no longer allowed the alteration.
	RetriesAborted int
	// Superseded counts pending operations replaced by a newer decision.
	Superseded int
	// Rejected counts operations refused up front (breaker open, or an
	// earlier operation still pending).
	Rejected int
	// BreakerOpens counts circuit-breaker trips.
	BreakerOpens int
	// IngestFailures counts telemetry-ingestion errors reported to the
	// actuator's failure log.
	IngestFailures int
	// ActionsApplied counts log entries that actually changed a
	// warehouse (the authoritative success count).
	ActionsApplied int
}

// ReliabilitySummary classifies the actuation failure log by operation
// outcome. kwo-sim prints it, and TestReliabilitySummaryMatchesObs pins
// it to the obs registry's counters.
func (o *Optimizer) ReliabilitySummary() ReliabilitySummary {
	act := o.engine.Actuator()
	var s ReliabilitySummary
	s.ActionsApplied = act.AppliedCount()

	// Operations that eventually landed: OpID of every applied log row.
	applied := make(map[uint64]bool)
	for _, r := range act.Log() {
		if r.Applied {
			applied[r.OpID] = true
		}
	}
	recovered := make(map[uint64]bool)
	for _, f := range act.Failures() {
		switch f.Kind {
		case actuator.FailTransient:
			s.FailedAttempts++
			if applied[f.OpID] {
				recovered[f.OpID] = true
			}
		case actuator.FailExhausted, actuator.FailPermanent:
			s.OpsAbandoned++
		case actuator.FailRetryAborted:
			s.RetriesAborted++
		case actuator.FailSuperseded:
			s.Superseded++
		case actuator.FailRejectedBreaker, actuator.FailRejectedPending:
			s.Rejected++
		case actuator.FailBreakerOpened:
			s.BreakerOpens++
		case actuator.FailIngest:
			s.IngestFailures++
		}
	}
	s.OpsRecovered = len(recovered)
	return s
}
