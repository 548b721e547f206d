package obs

import "time"

// Metric names. OBSERVABILITY.md documents the full catalog; the CI
// scrape job and TestCatalogServed verify every name is exposed.
const (
	MetricDecisionTicks       = "kwo_decision_ticks_total"
	MetricDegradedTicks       = "kwo_degraded_ticks_total"
	MetricActionsApplied      = "kwo_actions_applied_total"
	MetricActionAttempts      = "kwo_action_attempts_total"
	MetricActionRetries       = "kwo_action_retries_total"
	MetricActionFailures      = "kwo_action_failures_total"
	MetricBreakerTransitions  = "kwo_breaker_transitions_total"
	MetricDegradedTransitions = "kwo_degraded_transitions_total"
	MetricIngestFailures      = "kwo_ingest_failures_total"
	MetricInvoices            = "kwo_invoices_total"
	MetricInvoiceActual       = "kwo_invoice_actual_credits_total"
	MetricInvoiceSavings      = "kwo_invoice_savings_credits_total"
	MetricInvoiceCharge       = "kwo_invoice_charge_credits_total"
	MetricTrainings           = "kwo_trainings_total"
	MetricReplays             = "kwo_replays_total"
	MetricMonitorSpikes       = "kwo_monitor_spikes_total"
	MetricMonitorReverts      = "kwo_monitor_reverts_total"
	MetricQueries             = "kwo_telemetry_queries_total"
	MetricBillingHours        = "kwo_telemetry_billing_hours_total"
	MetricFaultsInjected      = "kwo_cdw_faults_injected_total"
	MetricConfigChanges       = "kwo_cdw_config_changes_total"
	MetricOverheadCredits     = "kwo_overhead_credits_total"
	MetricEvents              = "kwo_obs_events_total"
	MetricBreakerOpen         = "kwo_breaker_open"
	MetricDegraded            = "kwo_degraded"
	MetricRetryPending        = "kwo_retry_pending"
	MetricBaselineP99         = "kwo_monitor_baseline_p99_seconds"
	MetricBaselineQPH         = "kwo_monitor_baseline_qph"
	MetricQueryLatency        = "kwo_query_latency_seconds"
	MetricQueryQueue          = "kwo_query_queue_seconds"
	MetricRetryBackoff        = "kwo_retry_backoff_seconds"
	MetricSeriesLast          = "kwo_series_last"
	MetricSeriesPoints        = "kwo_series_points"
	MetricSLOBurn             = "kwo_slo_burn"
	MetricSLOPass             = "kwo_slo_pass"
)

// MetricCursorRebuilds is registered by no hub: billing replays each
// period in full and has no replay cursor to rebuild. The name stays
// because the kwobench harness still reads it as a per-layer counter,
// where an unregistered family sums to zero.
const MetricCursorRebuilds = "kwo_replay_cursor_rebuilds_total"

// Hub bundles the metrics registry and the event bus and pre-registers
// the full KWO metric catalog, so the ops endpoint exposes every
// metric (at zero) from the first scrape. One hub is shared by the
// simulated warehouse, the telemetry store, and the optimizer engine.
type Hub struct {
	Registry *Registry
	Bus      *Bus
	clock    func() time.Time

	// Engine.
	DecisionTicks       *CounterVec // warehouse
	DegradedTicks       *CounterVec // warehouse
	DegradedTransitions *CounterVec // warehouse, state=enter|exit
	Degraded            *GaugeVec   // warehouse
	IngestFailures      *CounterVec // warehouse
	Trainings           *CounterVec // warehouse
	Replays             *CounterVec // warehouse, mode=scratch
	Invoices            *CounterVec // warehouse
	InvoiceActual       *CounterVec // warehouse
	InvoiceSavings      *CounterVec // warehouse
	InvoiceCharge       *CounterVec // warehouse

	// Actuator.
	ActionsApplied     *CounterVec   // warehouse, reason
	ActionAttempts     *CounterVec   // warehouse
	ActionRetries      *CounterVec   // warehouse
	ActionFailures     *CounterVec   // warehouse, kind
	BreakerTransitions *CounterVec   // warehouse, state=open|closed
	BreakerOpen        *GaugeVec     // warehouse
	RetryPending       *GaugeVec     // warehouse
	RetryBackoff       *HistogramVec // warehouse

	// Monitor.
	MonitorSpikes  *CounterVec // warehouse, signal
	MonitorReverts *CounterVec // warehouse
	BaselineP99    *GaugeVec   // warehouse
	BaselineQPH    *GaugeVec   // warehouse

	// Telemetry store.
	Queries      *CounterVec   // warehouse
	BillingHours *CounterVec   // warehouse
	QueryLatency *HistogramVec // warehouse
	QueryQueue   *HistogramVec // warehouse

	// Simulated warehouse (cdw).
	FaultsInjected  *CounterVec // kind
	ConfigChanges   *CounterVec // warehouse, actor
	OverheadCredits *CounterVec // note

	// Bus self-metering.
	EventsTotal *CounterVec // kind

	// Time-series/SLO plane (Recorder and PublishSLO write these).
	SeriesLast   *GaugeVec // series
	SeriesPoints *GaugeVec // series
	SLOBurn      *GaugeVec // objective
	SLOPass      *GaugeVec // objective
}

// NewHub builds a hub whose timestamps come from clock — in a
// simulation, the scheduler's virtual Now, never the wall clock.
func NewHub(clock func() time.Time) *Hub {
	r := NewRegistry()
	h := &Hub{Registry: r, Bus: NewBus(clock, 0), clock: clock}

	h.DecisionTicks = r.NewCounterVec(MetricDecisionTicks,
		"Smart-model decision ticks executed.", "warehouse")
	h.DegradedTicks = r.NewCounterVec(MetricDegradedTicks,
		"Decision ticks executed in degraded (enforcement-only) mode.", "warehouse")
	h.DegradedTransitions = r.NewCounterVec(MetricDegradedTransitions,
		"Degraded-mode transitions by direction.", "warehouse", "state")
	h.Degraded = r.NewGaugeVec(MetricDegraded,
		"1 while the engine is in degraded mode for the warehouse.", "warehouse")
	h.IngestFailures = r.NewCounterVec(MetricIngestFailures,
		"Failed billing-history pulls.", "warehouse")
	h.Trainings = r.NewCounterVec(MetricTrainings,
		"Smart-model training rounds completed.", "warehouse")
	h.Replays = r.NewCounterVec(MetricReplays,
		"What-if replays that price a billing period without Keebo (mode=scratch: one full replay each).",
		"warehouse", "mode")
	h.Invoices = r.NewCounterVec(MetricInvoices,
		"Invoices cut at billing-period close.", "warehouse")
	h.InvoiceActual = r.NewCounterVec(MetricInvoiceActual,
		"Actual credits billed across invoices.", "warehouse")
	h.InvoiceSavings = r.NewCounterVec(MetricInvoiceSavings,
		"Estimated credits saved across invoices.", "warehouse")
	h.InvoiceCharge = r.NewCounterVec(MetricInvoiceCharge,
		"Savings-share charges across invoices.", "warehouse")

	h.ActionsApplied = r.NewCounterVec(MetricActionsApplied,
		"ALTER statements applied to the warehouse.", "warehouse", "reason")
	h.ActionAttempts = r.NewCounterVec(MetricActionAttempts,
		"ALTER attempts, including retries.", "warehouse")
	h.ActionRetries = r.NewCounterVec(MetricActionRetries,
		"ALTER retries scheduled after transient failures.", "warehouse")
	h.ActionFailures = r.NewCounterVec(MetricActionFailures,
		"Actuation failure-log rows by kind.", "warehouse", "kind")
	h.BreakerTransitions = r.NewCounterVec(MetricBreakerTransitions,
		"Circuit-breaker transitions by direction.", "warehouse", "state")
	h.BreakerOpen = r.NewGaugeVec(MetricBreakerOpen,
		"1 while the circuit breaker is open for the warehouse.", "warehouse")
	h.RetryPending = r.NewGaugeVec(MetricRetryPending,
		"1 while an actuation retry is pending for the warehouse.", "warehouse")
	h.RetryBackoff = r.NewHistogramVec(MetricRetryBackoff,
		"Backoff delays of scheduled actuation retries.",
		ExponentialBuckets(1, 2, 12), "warehouse")

	h.MonitorSpikes = r.NewCounterVec(MetricMonitorSpikes,
		"Monitor windows flagged as regressions, by signal.", "warehouse", "signal")
	h.MonitorReverts = r.NewCounterVec(MetricMonitorReverts,
		"Self-correction reverts triggered by the monitor.", "warehouse")
	h.BaselineP99 = r.NewGaugeVec(MetricBaselineP99,
		"Monitor EWMA baseline of p99 latency in seconds.", "warehouse")
	h.BaselineQPH = r.NewGaugeVec(MetricBaselineQPH,
		"Monitor EWMA baseline of queries per hour.", "warehouse")

	h.Queries = r.NewCounterVec(MetricQueries,
		"Queries ingested by the telemetry store.", "warehouse")
	h.BillingHours = r.NewCounterVec(MetricBillingHours,
		"New hourly billing rows ingested by the telemetry store.", "warehouse")
	h.QueryLatency = r.NewHistogramVec(MetricQueryLatency,
		"End-to-end query latency.", ExponentialBuckets(0.05, 2, 14), "warehouse")
	h.QueryQueue = r.NewHistogramVec(MetricQueryQueue,
		"Query queue time.", ExponentialBuckets(0.01, 2, 14), "warehouse")

	h.FaultsInjected = r.NewCounterVec(MetricFaultsInjected,
		"Faults injected by the simulated warehouse, by kind.", "kind")
	h.ConfigChanges = r.NewCounterVec(MetricConfigChanges,
		"Warehouse configuration changes recorded in the audit log.", "warehouse", "actor")
	h.OverheadCredits = r.NewCounterVec(MetricOverheadCredits,
		"Optimizer overhead credits charged to the account.", "note")

	h.EventsTotal = r.NewCounterVec(MetricEvents,
		"Events emitted on the trace bus, by kind.", "kind")

	h.SeriesLast = r.NewGaugeVec(MetricSeriesLast,
		"Latest sampled value of a recorded time series.", "series")
	h.SeriesPoints = r.NewGaugeVec(MetricSeriesPoints,
		"Retained point count of a recorded time series.", "series")
	h.SLOBurn = r.NewGaugeVec(MetricSLOBurn,
		"Error-budget burn of an SLO objective (1.0 = at target).", "objective")
	h.SLOPass = r.NewGaugeVec(MetricSLOPass,
		"1 while an SLO objective passes, 0 while it is breached.", "objective")
	return h
}

// Prime touches one canonical series per labeled family so every
// catalog family exposes at least one sample (at zero) from the first
// scrape. The single-tenant ops endpoint doesn't need this — family
// HELP/TYPE presence is enough — but the merged fleet exposition keys
// per-tenant completeness checks (kwo-obscheck -tenants) on samples, so
// each tenant hub primes its warehouse's label sets at provisioning.
// Priming only creates zero-valued series; it never changes a value.
func (h *Hub) Prime(warehouse string) {
	h.DecisionTicks.With(warehouse)
	h.DegradedTicks.With(warehouse)
	h.DegradedTransitions.With(warehouse, "enter")
	h.Degraded.With(warehouse)
	h.IngestFailures.With(warehouse)
	h.Trainings.With(warehouse)
	h.Replays.With(warehouse, "scratch")
	h.Invoices.With(warehouse)
	h.InvoiceActual.With(warehouse)
	h.InvoiceSavings.With(warehouse)
	h.InvoiceCharge.With(warehouse)
	h.ActionsApplied.With(warehouse, "smart-model")
	h.ActionAttempts.With(warehouse)
	h.ActionRetries.With(warehouse)
	h.ActionFailures.With(warehouse, "transient")
	h.BreakerTransitions.With(warehouse, "open")
	h.BreakerOpen.With(warehouse)
	h.RetryPending.With(warehouse)
	h.RetryBackoff.With(warehouse)
	h.MonitorSpikes.With(warehouse, "latency")
	h.MonitorReverts.With(warehouse)
	h.BaselineP99.With(warehouse)
	h.BaselineQPH.With(warehouse)
	h.Queries.With(warehouse)
	h.BillingHours.With(warehouse)
	h.QueryLatency.With(warehouse)
	h.QueryQueue.With(warehouse)
	h.FaultsInjected.With("alter-fail")
	h.ConfigChanges.With(warehouse, "kwo")
	h.OverheadCredits.With("telemetry-pull")
	h.EventsTotal.With("decision")
}

// Now returns the hub clock's current time.
func (h *Hub) Now() time.Time {
	if h == nil || h.clock == nil {
		return time.Time{}
	}
	return h.clock()
}

// Emit publishes an event on the bus and self-meters it.
func (h *Hub) Emit(kind EventKind, warehouse string, attrs ...Attr) {
	if h == nil {
		return
	}
	h.Bus.Emit(kind, warehouse, attrs...)
	h.EventsTotal.With(string(kind)).Inc()
}

// MetricSpec describes one cataloged metric family.
type MetricSpec struct {
	Name   string
	Type   MetricType
	Labels []string
	Help   string
}

// Specs lists every registered family, sorted by name.
func (r *Registry) Specs() []MetricSpec {
	out := make([]MetricSpec, 0)
	for _, fs := range r.Snapshot() {
		out = append(out, MetricSpec{Name: fs.Name, Type: fs.Type, Labels: fs.Labels, Help: fs.Help})
	}
	return out
}

// Catalog returns the canonical KWO metric catalog — derived from a
// fresh hub, so it can never drift from what NewHub registers.
func Catalog() []MetricSpec {
	return NewHub(func() time.Time { return time.Time{} }).Registry.Specs()
}
