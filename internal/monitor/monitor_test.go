package monitor

import (
	"testing"
	"time"

	"kwo/internal/cdw"
	"kwo/internal/simclock"
	"kwo/internal/telemetry"
)

var t0 = simclock.Epoch

// feed appends n queries with the given latency and template into the
// store for the window ending at end.
func feed(s *telemetry.Store, end time.Time, n int, exec, queue time.Duration, tmplBase uint64) {
	for i := 0; i < n; i++ {
		at := end.Add(-time.Duration(i+1) * 30 * time.Second)
		start := at.Add(queue)
		s.OnQuery(cdw.QueryRecord{
			Warehouse: "W", TemplateHash: tmplBase + uint64(i%3),
			SubmitTime: at, StartTime: start, EndTime: start.Add(exec),
			QueueDuration: queue, ExecDuration: exec,
			Size: cdw.SizeSmall, Clusters: 1,
		})
	}
}

func warmedMonitor(s *telemetry.Store) (*Monitor, time.Time) {
	m := New(s, "W", 10*time.Minute, DefaultThresholds())
	now := t0
	for i := 0; i < 8; i++ {
		now = now.Add(10 * time.Minute)
		feed(s, now, 10, 2*time.Second, 100*time.Millisecond, 0)
		m.Observe(now)
	}
	return m, now
}

func TestNoSpikeOnSteadyState(t *testing.T) {
	s := telemetry.NewStore()
	feed(s, t0.Add(time.Minute), 1, time.Second, 0, 0)
	m, now := warmedMonitor(s)
	now = now.Add(10 * time.Minute)
	feed(s, now, 10, 2*time.Second, 100*time.Millisecond, 0)
	snap := m.Observe(now)
	if snap.Degraded {
		t.Fatalf("steady state flagged degraded: %+v", snap)
	}
	if snap.BaselineP99 <= 0 || snap.BaselineQPH <= 0 {
		t.Fatal("baselines not learned")
	}
}

func TestLatencySpikeDetected(t *testing.T) {
	s := telemetry.NewStore()
	m, now := warmedMonitor(s)
	now = now.Add(10 * time.Minute)
	feed(s, now, 10, 20*time.Second, 100*time.Millisecond, 0) // 10x slower
	snap := m.Observe(now)
	if !snap.LatencySpike || !snap.Degraded {
		t.Fatalf("latency spike missed: %+v", snap)
	}
}

func TestQueueSpikeDetected(t *testing.T) {
	s := telemetry.NewStore()
	m, now := warmedMonitor(s)
	now = now.Add(10 * time.Minute)
	feed(s, now, 10, 2*time.Second, 30*time.Second, 0)
	snap := m.Observe(now)
	if !snap.QueueSpike {
		t.Fatalf("queue spike missed: %+v", snap)
	}
}

func TestSmallQueueBelowFloorIgnored(t *testing.T) {
	s := telemetry.NewStore()
	m, now := warmedMonitor(s)
	now = now.Add(10 * time.Minute)
	// 4x baseline queue but under the 5s floor: not a spike.
	feed(s, now, 10, 2*time.Second, 400*time.Millisecond, 0)
	snap := m.Observe(now)
	if snap.QueueSpike {
		t.Fatalf("sub-floor queue flagged: %+v", snap)
	}
}

func TestLoadSpikeDetected(t *testing.T) {
	s := telemetry.NewStore()
	m, now := warmedMonitor(s)
	now = now.Add(10 * time.Minute)
	// 100 queries packed into the window: 600 QPH vs ~60 baseline.
	for i := 0; i < 100; i++ {
		at := now.Add(-time.Duration(i+1) * 5 * time.Second)
		s.OnQuery(cdw.QueryRecord{
			Warehouse: "W", TemplateHash: uint64(i % 3),
			SubmitTime: at, StartTime: at, EndTime: at.Add(2 * time.Second),
			ExecDuration: 2 * time.Second, Size: cdw.SizeSmall, Clusters: 1,
		})
	}
	snap := m.Observe(now)
	if !snap.LoadSpike {
		t.Fatalf("load spike missed: %+v", snap)
	}
}

func TestNewPatternDetected(t *testing.T) {
	s := telemetry.NewStore()
	m, now := warmedMonitor(s)
	now = now.Add(10 * time.Minute)
	feed(s, now, 10, 2*time.Second, 100*time.Millisecond, 999) // unseen templates
	snap := m.Observe(now)
	if !snap.NewPattern {
		t.Fatalf("new pattern missed: %+v", snap)
	}
}

func TestColdStartSuppressed(t *testing.T) {
	s := telemetry.NewStore()
	m := New(s, "W", 10*time.Minute, DefaultThresholds())
	// Even an extreme first window cannot spike before baselines warm.
	now := t0.Add(10 * time.Minute)
	feed(s, now, 200, time.Minute, time.Minute, 0)
	snap := m.Observe(now)
	if snap.Degraded {
		t.Fatalf("cold-start window flagged: %+v", snap)
	}
}

func TestEmptyWindowsDoNotPoisonBaseline(t *testing.T) {
	s := telemetry.NewStore()
	m, now := warmedMonitor(s)
	before := m.Windows()
	// Three empty windows.
	for i := 0; i < 3; i++ {
		now = now.Add(10 * time.Minute)
		m.Observe(now)
	}
	if m.Windows() != before {
		t.Fatal("empty windows were folded into baseline")
	}
	// Steady traffic afterwards is still unflagged.
	now = now.Add(10 * time.Minute)
	feed(s, now, 10, 2*time.Second, 100*time.Millisecond, 0)
	if snap := m.Observe(now); snap.Degraded {
		t.Fatalf("degraded after idle gap: %+v", snap)
	}
}

func TestNilLogSafe(t *testing.T) {
	m := New(nil, "W", 10*time.Minute, DefaultThresholds())
	snap := m.Observe(t0.Add(time.Hour))
	if snap.Degraded || snap.Stats.Queries != 0 {
		t.Fatalf("nil log snapshot = %+v", snap)
	}
}

// A sustained regression must keep firing: before degraded windows were
// down-weighted, ~6 windows of queueing folded at full weight taught the
// queue baseline to accept the queueing and the detector disarmed itself
// — exactly while a KWO-caused regression still needed reverting.
func TestSustainedQueueingKeepsFiring(t *testing.T) {
	s := telemetry.NewStore()
	m, now := warmedMonitor(s)
	for i := 0; i < 30; i++ {
		now = now.Add(10 * time.Minute)
		feed(s, now, 10, 2*time.Second, 30*time.Second, 0)
		snap := m.Observe(now)
		if !snap.QueueSpike {
			t.Fatalf("queue spike disarmed itself after %d degraded windows (baseline %s)",
				i, snap.BaselineQueue)
		}
	}
}

// The flip side: down-weighting must slow convergence, not stop it. A
// workload whose latency genuinely shifted (without queueing pressure
// staying pathological forever) still becomes the new baseline.
func TestShiftedWorkloadEventuallyConverges(t *testing.T) {
	s := telemetry.NewStore()
	m, now := warmedMonitor(s)
	fired := 0
	for i := 0; i < 400; i++ {
		now = now.Add(10 * time.Minute)
		feed(s, now, 10, 5*time.Second, 100*time.Millisecond, 0) // 2.5x slower for good
		snap := m.Observe(now)
		if snap.LatencySpike {
			fired++
		} else if i > 2 {
			break
		}
	}
	if fired == 0 {
		t.Fatal("shifted workload never flagged at all")
	}
	now = now.Add(10 * time.Minute)
	feed(s, now, 10, 5*time.Second, 100*time.Millisecond, 0)
	if snap := m.Observe(now); snap.LatencySpike {
		t.Fatalf("baseline never converged to the shifted workload (baseline %s, fired %d windows)",
			snap.BaselineP99, fired)
	}
}
