// Package monitor implements KWO's real-time monitoring component
// (§4.4). It watches performance metrics to (1) assess the impact of
// the optimizer's own actions and feed that back to the smart models,
// and (2) detect sudden workload spikes or new query patterns that the
// models were not trained on. §4.4's third duty, noticing configuration
// changes made by other users, is the engine's scan of the audit log
// (internal/core).
package monitor

import (
	"time"

	"kwo/internal/ml"
	"kwo/internal/telemetry"
)

// Thresholds tune the spike detectors.
type Thresholds struct {
	// LatencySpikeFactor flags when windowed p99 latency exceeds the
	// baseline by this multiple.
	LatencySpikeFactor float64
	// QueueSpikeFloor is the minimum p99 queue time considered a
	// spike regardless of baseline.
	QueueSpikeFloor time.Duration
	// QueueSpikeFactor flags when p99 queue time exceeds baseline by
	// this multiple.
	QueueSpikeFactor float64
	// LoadSpikeFactor flags when arrival rate exceeds baseline by
	// this multiple.
	LoadSpikeFactor float64
	// NewPatternFraction flags when more than this fraction of the
	// window's distinct templates were never seen before.
	NewPatternFraction float64
	// MinBaselineWindows is how many windows feed the baseline before
	// spike detection activates (avoids false alarms on cold start).
	MinBaselineWindows int
}

// DefaultThresholds returns conservative production defaults.
func DefaultThresholds() Thresholds {
	return Thresholds{
		LatencySpikeFactor: 2.0,
		QueueSpikeFloor:    5 * time.Second,
		QueueSpikeFactor:   3.0,
		LoadSpikeFactor:    3.0,
		NewPatternFraction: 0.4,
		MinBaselineWindows: 6,
	}
}

// Snapshot is the real-time state handed to the smart model at each
// decision point (Algorithm 1's Monitoring.RealTimeState()).
type Snapshot struct {
	At    time.Time
	Stats telemetry.WindowStats

	BaselineP99   time.Duration
	BaselineQueue time.Duration
	BaselineQPH   float64

	LatencySpike bool
	QueueSpike   bool
	LoadSpike    bool
	NewPattern   bool

	// Degraded is true when any spike condition fired — the signal
	// that makes the smart model back off to a conservative action.
	Degraded bool
}

// Monitor tracks one warehouse. It keeps exponentially weighted
// baselines of the key metrics and compares each new window to them.
type Monitor struct {
	store     *telemetry.Store
	warehouse string
	th        Thresholds
	window    time.Duration

	p99   ml.EWMA
	queue ml.EWMA
	qph   ml.EWMA
	n     int

	// observer, when set, receives every snapshot Observe folds — the
	// engine uses it to export baselines and spike verdicts without a
	// second Stats pass. Peek never calls it.
	observer func(Snapshot)
}

// New creates a monitor for one warehouse of the telemetry store, with
// the given observation window (the paper checks real-time state every
// few minutes).
func New(store *telemetry.Store, warehouse string, window time.Duration, th Thresholds) *Monitor {
	if window <= 0 {
		window = 10 * time.Minute
	}
	return &Monitor{
		store:     store,
		warehouse: warehouse,
		th:        th,
		window:    window,
		p99:       ml.EWMA{Alpha: 0.1},
		queue:     ml.EWMA{Alpha: 0.1},
		qph:       ml.EWMA{Alpha: 0.1},
	}
}

// degradedFoldWeight is the fraction of the normal smoothing weight a
// degraded window contributes to the baselines. Folding degraded
// windows at full weight lets a regression teach the baseline to accept
// the regression — after a few windows the spike detectors disarm
// themselves and the self-correction loop goes blind. A heavy
// down-weight keeps sustained real shifts converging (a genuinely
// changed workload still becomes the baseline, just ~8x slower) while a
// KWO-caused regression keeps firing long enough to be reverted.
const degradedFoldWeight = 0.125

// Observe computes the current snapshot and folds the window into the
// baselines. Call it once per decision tick.
func (m *Monitor) Observe(now time.Time) Snapshot {
	snap := m.Peek(now)
	// Fold into baselines. Spiking windows are still folded, but heavily
	// down-weighted, so a genuinely changed workload eventually becomes
	// the baseline — the models "constantly learn and improve" — without
	// the detectors disarming themselves against a live regression.
	if snap.Stats.Queries > 0 {
		// Down-weighting is per metric: a queue spike must not drag the
		// queue baseline up, but the same window's latency observation
		// may be fine and keeps its baseline tracking. The load baseline
		// always folds at full weight — arrival rate is driven by the
		// workload, not by anything KWO did, so a load spike is exactly
		// the "genuinely changed workload" case that must keep
		// converging.
		fold := func(e *ml.EWMA, x float64, spiked bool) {
			if spiked {
				e.AddWeighted(x, degradedFoldWeight)
			} else {
				e.Add(x)
			}
		}
		fold(&m.p99, snap.Stats.P99Latency.Seconds(), snap.LatencySpike)
		fold(&m.queue, snap.Stats.P99Queue.Seconds(), snap.QueueSpike)
		m.qph.Add(snap.Stats.QPH)
		m.n++
	}
	if m.observer != nil {
		m.observer(snap)
	}
	return snap
}

// SetObserver registers the per-Observe snapshot callback.
func (m *Monitor) SetObserver(fn func(Snapshot)) { m.observer = fn }

// Peek computes the current snapshot WITHOUT folding the window into
// the baselines. It is side-effect free, so test harnesses and
// invariant checks can inspect the monitor's verdict at any instant
// without perturbing what the engine's own Observe calls will see.
//
// The Stats call underneath is O(log N + W) with no steady-state
// allocation (N = log size, W = queries in the window): additive
// fields come from prefix-aggregate differences and percentiles from
// quickselect over reused scratch, so Peek stays cheap on every
// decision tick even against multi-month logs.
func (m *Monitor) Peek(now time.Time) Snapshot {
	var log *telemetry.WarehouseLog
	if m.store != nil {
		log = m.store.Log(m.warehouse)
	}
	ws := log.Stats(now.Add(-m.window), now)
	snap := Snapshot{
		At:            now,
		Stats:         ws,
		BaselineP99:   time.Duration(m.p99.Value() * float64(time.Second)),
		BaselineQueue: time.Duration(m.queue.Value() * float64(time.Second)),
		BaselineQPH:   m.qph.Value(),
	}
	ready := m.n >= m.th.MinBaselineWindows
	if ready && ws.Queries > 0 {
		if m.p99.Value() > 0 &&
			ws.P99Latency.Seconds() > m.th.LatencySpikeFactor*m.p99.Value() {
			snap.LatencySpike = true
		}
		queueHigh := ws.P99Queue >= m.th.QueueSpikeFloor
		queueJump := m.queue.Value() > 0 &&
			ws.P99Queue.Seconds() > m.th.QueueSpikeFactor*m.queue.Value()
		if queueHigh && (queueJump || m.queue.Value() == 0) {
			snap.QueueSpike = true
		}
		if m.qph.Value() > 0 && ws.QPH > m.th.LoadSpikeFactor*m.qph.Value() {
			snap.LoadSpike = true
		}
		if ws.DistinctTemplates > 0 {
			frac := float64(ws.NewTemplates) / float64(ws.DistinctTemplates)
			if frac > m.th.NewPatternFraction {
				snap.NewPattern = true
			}
		}
	}
	snap.Degraded = snap.LatencySpike || snap.QueueSpike || snap.LoadSpike || snap.NewPattern
	return snap
}

// Windows returns how many non-empty windows have been folded into the
// baselines.
func (m *Monitor) Windows() int { return m.n }

// Config returns the thresholds the monitor was built with.
func (m *Monitor) Config() Thresholds { return m.th }

// Window returns the observation window length.
func (m *Monitor) Window() time.Duration { return m.window }
