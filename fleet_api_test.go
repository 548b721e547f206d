package kwo_test

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"kwo"
)

// smallFleetConfig keeps public-API fleet tests inside a unit-test
// budget: few tenants, short horizon, a lightly pretrained optimizer.
func smallFleetConfig() kwo.FleetConfig {
	opts := kwo.DefaultOptions()
	opts.PretrainSteps = 40
	return kwo.FleetConfig{
		Tenants:  3,
		Seed:     11,
		Epochs:   6,
		EpochLen: time.Hour,
		Workers:  2,
		Opts:     opts,
	}
}

// TestFleetCloseIdempotent is the regression for double-Close: closing
// a fleet twice must be safe, and a closed fleet must still step — the
// pool falls back to inline execution with identical results.
func TestFleetCloseIdempotent(t *testing.T) {
	cfg := smallFleetConfig()
	f, err := kwo.NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	f.Close() // must not panic or block
	if err := f.RunEpoch(); err != nil {
		t.Fatalf("RunEpoch after double Close: %v", err)
	}
	if f.Epoch() != 1 {
		t.Fatalf("Epoch = %d after one inline step, want 1", f.Epoch())
	}
	rep, err := f.Run()
	if err != nil {
		t.Fatalf("Run after double Close: %v", err)
	}
	f.Close() // closing again after use stays safe

	open, err := kwo.NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer open.Close()
	rep2, err := open.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fingerprint() != rep2.Fingerprint() {
		t.Errorf("inline (closed) fingerprint %s != pooled %s", rep.Fingerprint(), rep2.Fingerprint())
	}
}

// alertLines renders the alerts after epoch as alert-log lines.
func alertLines(alerts []kwo.FleetAlert, after int) string {
	var b strings.Builder
	for _, a := range alerts {
		if a.Epoch > after {
			b.WriteString(a.JSON() + "\n")
		}
	}
	return b.String()
}

// TestFleetCheckpointResumePublicAPI drives the crash-recovery surface
// exactly as an embedding program would: checkpoints on a cadence,
// alerts into a log, resume from the latest checkpoint, and a
// byte-identical final fingerprint.
func TestFleetCheckpointResumePublicAPI(t *testing.T) {
	dir := t.TempDir()
	cfg := smallFleetConfig()
	cfg.CheckpointDir = dir
	cfg.CheckpointEvery = 4
	// A forced fault plan breaches t00's degraded-time objective at
	// epoch 2 and a panic probe quarantines t01 at epoch 5: alerts on
	// both sides of the epoch-4 checkpoint resumed below.
	cfg.FaultTenants = []int{0}
	cfg.PanicTenants = []int{1}
	cfg.PanicEpoch = 5
	var alertLog bytes.Buffer
	cfg.AlertLog = &alertLog

	f, err := kwo.NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	alerts := f.Alerts()
	f.Close()
	if len(alerts) == 0 {
		t.Fatal("the run fired no alerts")
	}
	if got, want := alertLog.String(), alertLines(alerts, 0); got != want {
		t.Errorf("alert log:\n%s\nwant the tracker log's lines:\n%s", got, want)
	}

	cp, path, err := kwo.LatestFleetCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(path) != dir || cp.Epoch != 6 {
		t.Fatalf("latest checkpoint = epoch %d at %s, want final epoch 6 in %s", cp.Epoch, path, dir)
	}

	// Offline view: the checkpoint replayed to its epoch.
	kpis, _, slo, err := kwo.FleetCheckpointView(cp, kwo.FleetConfig{Opts: cfg.Opts})
	if err != nil {
		t.Fatal(err)
	}
	if kpis.Tenants != cfg.Tenants || !kpis.Done {
		t.Fatalf("checkpoint view = %d tenants done=%t, want %d true", kpis.Tenants, kpis.Done, cfg.Tenants)
	}
	if slo.Alerts.Total != uint64(len(alerts)) {
		t.Fatalf("view alert total = %d, want %d", slo.Alerts.Total, len(alerts))
	}

	// Resume from a mid-run checkpoint; replay must not write again the
	// alerts the first process already wrote.
	mid, err := kwo.LoadFleetCheckpoint(filepath.Join(dir, "fleet-epoch-000004.ckpt.json"))
	if err != nil {
		t.Fatal(err)
	}
	var relog bytes.Buffer
	rf, err := kwo.ResumeFleet(mid, kwo.FleetConfig{Opts: cfg.Opts, AlertLog: &relog})
	if err != nil {
		t.Fatalf("ResumeFleet: %v", err)
	}
	defer rf.Close()
	if rf.Epoch() != 4 {
		t.Fatalf("resumed fleet stands at epoch %d, want 4", rf.Epoch())
	}
	rep2, err := rf.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fingerprint() != rep2.Fingerprint() {
		t.Errorf("resumed fingerprint %s != uninterrupted %s", rep2.Fingerprint(), rep.Fingerprint())
	}
	if got, want := relog.String(), alertLines(alerts, 4); got != want {
		t.Errorf("resumed alert log:\n%s\nwant the tracker log's lines after epoch 4:\n%s", got, want)
	}
	if got := rf.Alerts(); len(got) != len(alerts) {
		t.Errorf("resumed tracker log has %d entries, want %d (rebuilt by the replay)", len(got), len(alerts))
	} else {
		for i := range got {
			if got[i].JSON() != alerts[i].JSON() {
				t.Errorf("alert %d diverges after resume:\n%s\n%s", i, got[i].JSON(), alerts[i].JSON())
			}
		}
	}
}
