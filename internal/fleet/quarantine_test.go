package fleet

import (
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"kwo/internal/obs"
)

// TestQuarantineIsolation is the blast-radius property: a tenant that
// panics mid-epoch is quarantined — frozen at its last consistent
// state — and every OTHER tenant's fingerprints are byte-identical to a
// run where the panic never happened. Tenant seeds derive from the
// fleet seed and index, so the comparison baseline is the same-size
// fleet without the probe, not a smaller fleet.
func TestQuarantineIsolation(t *testing.T) {
	clean := testConfig(4, 2)
	cleanRep := runFleet(t, clean)

	cfg := clean
	cfg.PanicTenants = []int{2}
	cfg.PanicEpoch = 4
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}

	if rep.QuarantinedTenants != 1 {
		t.Fatalf("QuarantinedTenants = %d, want 1", rep.QuarantinedTenants)
	}
	for i, k := range rep.PerTenant {
		ck := cleanRep.PerTenant[i]
		if i == 2 {
			if !k.Quarantined || k.QuarantineEpoch != 4 {
				t.Fatalf("probe tenant = quarantined %t epoch %d, want true 4", k.Quarantined, k.QuarantineEpoch)
			}
			if !strings.Contains(k.QuarantineReason, "panic") || !strings.Contains(k.QuarantineReason, "panic probe") {
				t.Errorf("probe reason = %q, want a panic-probe panic", k.QuarantineReason)
			}
			continue
		}
		if k.Quarantined {
			t.Errorf("tenant %s quarantined, only t02 should be", k.Tenant)
		}
		if k.EventsFingerprint != ck.EventsFingerprint || k.SnapshotFingerprint != ck.SnapshotFingerprint {
			t.Errorf("tenant %s fingerprints perturbed by t02's quarantine", k.Tenant)
		}
	}
	quarantines := 0
	for _, a := range f.Alerts() {
		if a.Kind == obs.AlertQuarantine {
			quarantines++
		}
	}
	if quarantines != 1 {
		t.Errorf("quarantine alerts = %d, want exactly 1 (announced once)", quarantines)
	}
	// The quarantined tenant leads the regression ranking: a frozen
	// tenant is the worst thing on the board.
	if len(rep.TopRegressed) == 0 || !rep.TopRegressed[0].Quarantined {
		t.Errorf("TopRegressed does not lead with the quarantined tenant")
	}
}

// alertConfig is a fleet that fires alerts on several barriers: t00's
// forced fault plan breaches an objective and t02's panic probe is
// quarantined.
func alertConfig() Config {
	cfg := testConfig(4, 2)
	cfg.FaultTenants = []int{0}
	cfg.PanicTenants = []int{2}
	return cfg
}

// alertLines renders alerts as alert-log lines.
func alertLines(alerts []obs.Alert) string {
	var b strings.Builder
	for _, a := range alerts {
		b.WriteString(a.JSON() + "\n")
	}
	return b.String()
}

// lockProbeLog is an alert log that records, on every line, whether
// the plane lock was held while the fleet wrote it.
type lockProbeLog struct {
	f           *Fleet
	lines, held int
}

func (l *lockProbeLog) Write(p []byte) (int, error) {
	l.lines++
	if l.f.plane.mu.TryLock() {
		l.f.plane.mu.Unlock()
	} else {
		l.held++
	}
	return len(p), nil
}

// TestAlertLogWrittenOutsidePlaneLock: the fleet writes every alert
// line with the plane lock released, so a slow log never holds up a
// scrape.
func TestAlertLogWrittenOutsidePlaneLock(t *testing.T) {
	cfg := alertConfig()
	probe := &lockProbeLog{}
	cfg.AlertLog = probe
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	probe.f = f
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if n := len(f.Alerts()); n < 2 || probe.lines != n {
		t.Fatalf("alert log got %d lines for %d alerts, want one each and at least 2", probe.lines, n)
	}
	if probe.held != 0 {
		t.Errorf("the plane lock was held during %d of %d alert writes", probe.held, probe.lines)
	}
}

// failingLog is an alert log whose first failures writes fail; it
// keeps the lines of the others.
type failingLog struct {
	failures, writes int
	lines            strings.Builder
}

func (l *failingLog) Write(p []byte) (int, error) {
	l.writes++
	if l.writes <= l.failures {
		return 0, errors.New("alert log down")
	}
	return l.lines.Write(p)
}

// TestAlertLogFailedWriteCountedNotRetried: a failed write is counted
// in sink_errors and not retried, the next alert is still written, and
// the tracker log keeps every alert.
func TestAlertLogFailedWriteCountedNotRetried(t *testing.T) {
	cfg := alertConfig()
	out := &failingLog{failures: 1}
	cfg.AlertLog = out
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	alerts := f.Alerts()
	if len(alerts) < 2 {
		t.Fatalf("the run fired %d alerts, want at least 2", len(alerts))
	}
	if n := f.SLOStatus().Alerts.SinkErrors; n != 1 {
		t.Errorf("sink_errors = %d, want 1", n)
	}
	if out.writes != len(alerts) {
		t.Errorf("alert log saw %d writes for %d alerts, want one each", out.writes, len(alerts))
	}
	if got, want := out.lines.String(), alertLines(alerts[1:]); got != want {
		t.Errorf("alert log:\n%s\nwant every alert but the first:\n%s", got, want)
	}
}

// TestQuarantineDeterminismAcrossWorkers: quarantine decisions,
// announcements, and every surviving tenant's state must be identical
// for any worker count — this is the -race CI target.
func TestQuarantineDeterminismAcrossWorkers(t *testing.T) {
	cfg := testConfig(4, 1)
	cfg.PanicTenants = []int{1}
	cfg.PanicEpoch = 3
	base := runFleet(t, cfg)
	sweep := []int{2, 4}
	if *fleetWorkers > 0 {
		sweep = []int{*fleetWorkers}
	}
	for _, w := range sweep {
		c := cfg
		c.Workers = w
		rep := runFleet(t, c)
		if rep.Fingerprint() != base.Fingerprint() {
			t.Errorf("workers=%d fingerprint %s != workers=1 %s", w, rep.Fingerprint(), base.Fingerprint())
		}
	}
}

// TestEpochDeadlineQuarantine drives the watchdog with a scripted wall
// clock: one tenant's epoch appears to take an hour, the rest are
// instant. Only the slow tenant is quarantined, and the run completes.
func TestEpochDeadlineQuarantine(t *testing.T) {
	clean := testConfig(3, 1)
	cleanRep := runFleet(t, clean)

	cfg := clean // Workers=1 → inline sequential fan-out, call order deterministic
	cfg.EpochDeadline = time.Second
	wall := time.Unix(0, 0)
	calls := 0
	cfg.Wall = func() time.Time {
		calls++
		// Each active tenant costs two calls per epoch (start, end), in
		// index order. Call 4 is tenant 1's end-of-step in epoch 1.
		if calls == 4 {
			return wall.Add(time.Hour)
		}
		return wall
	}
	rep := runFleet(t, cfg)

	if rep.QuarantinedTenants != 1 {
		t.Fatalf("QuarantinedTenants = %d, want 1", rep.QuarantinedTenants)
	}
	for i, k := range rep.PerTenant {
		if i == 1 {
			if !k.Quarantined || k.QuarantineEpoch != 1 || !strings.Contains(k.QuarantineReason, "epoch deadline exceeded") {
				t.Fatalf("slow tenant = %+v, want deadline quarantine at epoch 1", k)
			}
			continue
		}
		ck := cleanRep.PerTenant[i]
		if k.Quarantined || k.EventsFingerprint != ck.EventsFingerprint {
			t.Errorf("tenant %s perturbed by t01's deadline quarantine", k.Tenant)
		}
	}
}

// TestQuarantineFrozenSLOStable: a quarantined tenant keeps serving
// the same verdicts on every scrape, its KPI row stays the frozen one,
// and repeated payload reads are byte-identical.
func TestQuarantineFrozenSLOStable(t *testing.T) {
	cfg := testConfig(3, 2)
	cfg.PanicTenants = []int{0}
	cfg.PanicEpoch = 3
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}

	first, err := json.Marshal(f.SLOStatus())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := json.Marshal(f.SLOStatus())
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(first) {
			t.Fatalf("SLO payload %d over a quarantined fleet not stable:\n%s\n%s", i, again, first)
		}
	}

	slo := f.SLOStatus()
	if slo.Quarantined != 1 {
		t.Fatalf("slo.Quarantined = %d, want 1", slo.Quarantined)
	}
	row := slo.PerTenant[0]
	if !row.Quarantined || row.QuarantineEpoch != 3 {
		t.Fatalf("t00 SLO row = %+v, want quarantined at epoch 3", row)
	}
	// A quarantined tenant keeps the verdicts of its frozen rings; it
	// does not vanish from the SLO board.
	if len(row.Verdicts) != len(slo.Objectives) {
		t.Fatalf("frozen tenant has %d verdicts, want %d", len(row.Verdicts), len(slo.Objectives))
	}

	kpis := f.KPIs()
	if kpis.Quarantined != 1 || !kpis.PerTenant[0].Quarantined {
		t.Fatalf("live KPIs = quarantined %d row %+v, want the freeze surfaced", kpis.Quarantined, kpis.PerTenant[0])
	}
	if sum := slo.Alerts; sum.Quarantines != 1 {
		t.Fatalf("alert summary quarantines = %d, want 1", sum.Quarantines)
	}
}

// TestResumeAcrossQuarantine: a checkpoint from every epoch boundary —
// before, at and after a quarantine — resumes to the uninterrupted
// run's exact fingerprint. Before: the panic probe fires live in the
// resumed process. At and after: the checkpoint's quarantine record is
// restored without re-panicking.
func TestResumeAcrossQuarantine(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(4, 2)
	cfg.PanicTenants = []int{1}
	cfg.PanicEpoch = 3
	cfg.CheckpointDir = dir
	cfg.CheckpointEvery = 1
	want := runFleet(t, cfg).Fingerprint()

	for k := 1; k <= cfg.Epochs; k++ {
		if k >= cfg.PanicEpoch {
			cp, err := LoadCheckpoint(filepath.Join(dir, checkpointFileName(k)))
			if err != nil {
				t.Fatalf("epoch %d: %v", k, err)
			}
			if tc := cp.Tenants[1]; !tc.Quarantined || tc.QuarantineEpoch != cfg.PanicEpoch {
				t.Fatalf("epoch-%d checkpoint does not record the quarantine: %+v", k, tc)
			}
		}
		if got := resumeFingerprint(t, dir, k, cfg); got != want {
			t.Errorf("resume from epoch %d: fingerprint %s != uninterrupted %s", k, got, want)
		}
	}
}

// TestQuarantineCSVRow: the report CSV keeps one column layout for all
// tenants, quarantine reasons are sanitized for the format, and the
// fingerprint therefore covers quarantine state.
func TestQuarantineCSVRow(t *testing.T) {
	cfg := testConfig(3, 2)
	cfg.PanicTenants = []int{2}
	cfg.PanicEpoch = 4
	rep := runFleet(t, cfg)

	var b strings.Builder
	if err := rep.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("CSV has %d lines, want header + 3 rows", len(lines))
	}
	if !strings.Contains(lines[0], "quarantined,quarantine_epoch,quarantine_reason") {
		t.Fatalf("CSV header missing quarantine columns: %s", lines[0])
	}
	width := len(strings.Split(lines[0], ","))
	for i, line := range lines[1:] {
		if got := len(strings.Split(line, ",")); got != width {
			t.Errorf("row %d has %d fields, header has %d (reason not sanitized?): %s", i, got, width, line)
		}
	}
	if !strings.Contains(lines[3], ",true,4,") {
		t.Errorf("quarantined row does not carry true,4: %s", lines[3])
	}
}

func TestSanitizeCSV(t *testing.T) {
	in := "panic: a, b\nand more"
	if got, want := sanitizeCSV(in), "panic: a; b and more"; got != want {
		t.Fatalf("sanitizeCSV(%q) = %q, want %q", in, got, want)
	}
}
