package fleet

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// resumeBase returns the operational config a resuming process would
// supply: everything behaviour-affecting comes from the checkpoint, but
// Opts (not serialized — it may hold live hooks) must match the
// original run by construction, exactly as the CLI always builds it
// from defaults.
func resumeBase(cfg Config) Config {
	return Config{Workers: 3, Opts: cfg.Opts}
}

// resumeFingerprint resumes the checkpoint of epoch k in dir, runs the
// resumed fleet to completion, and returns the report fingerprint.
func resumeFingerprint(t *testing.T, dir string, k int, cfg Config) string {
	t.Helper()
	cp, err := LoadCheckpoint(filepath.Join(dir, checkpointFileName(k)))
	if err != nil {
		t.Fatalf("LoadCheckpoint(epoch %d): %v", k, err)
	}
	f, err := Resume(cp, resumeBase(cfg))
	if err != nil {
		t.Fatalf("Resume from epoch %d: %v", k, err)
	}
	defer f.Close()
	rep, err := f.Run()
	if err != nil {
		t.Fatalf("Run after resume from epoch %d: %v", k, err)
	}
	return rep.Fingerprint()
}

// TestCheckpointResumeFingerprintIdentical is the tentpole property: a
// run interrupted at ANY epoch boundary and resumed in a fresh fleet
// must finish with a report fingerprint byte-identical to the
// uninterrupted run — crash recovery may not perturb a single simulated
// byte.
func TestCheckpointResumeFingerprintIdentical(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(4, 2)
	cfg.CheckpointDir = dir
	cfg.CheckpointEvery = 1
	want := runFleet(t, cfg).Fingerprint()
	for k := 1; k <= cfg.Epochs; k++ {
		if got := resumeFingerprint(t, dir, k, cfg); got != want {
			t.Errorf("resume from epoch %d: fingerprint %s != uninterrupted %s", k, got, want)
		}
	}
}

// TestResumeDoesNotRewriteReplayedCheckpoints: replayed epochs must not
// write checkpoint files (or alert lines) again — only epochs the
// resumed fleet genuinely advances through do.
func TestResumeDoesNotRewriteReplayedCheckpoints(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(3, 2)
	cfg.CheckpointDir = dir
	cfg.CheckpointEvery = 4
	runFleet(t, cfg)

	cp, err := LoadCheckpoint(filepath.Join(dir, checkpointFileName(4)))
	if err != nil {
		t.Fatal(err)
	}
	fresh := t.TempDir()
	base := resumeBase(cfg)
	base.CheckpointDir = fresh
	base.CheckpointEvery = 4
	f, err := Resume(cp, base)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	defer f.Close()
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(fresh, "fleet-epoch-*.ckpt.json"))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(names))
	for i, n := range names {
		got[i] = filepath.Base(n)
	}
	want := []string{checkpointFileName(8), checkpointFileName(12)}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("resumed run wrote %v, want only post-resume epochs %v", got, want)
	}
}

// TestCheckpointViewMatchesLive: the offline portal view of a
// checkpoint must be JSON-identical to the live fleet's ops payloads at
// the same epoch — for a finished fleet, for one with a quarantined
// tenant (whose frozen series the live payloads keep showing), and for
// a checkpoint taken mid-run.
func TestCheckpointViewMatchesLive(t *testing.T) {
	for _, tc := range []struct {
		name       string
		quarantine bool // arm t01's panic probe for epoch 3
		stopAt     int  // epochs run before the checkpoint; 0 runs to completion
	}{
		{"clean", false, 0},
		{"quarantined", true, 0},
		{"mid-run", false, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(3, 2)
			cfg.Epochs = 6
			if tc.quarantine {
				cfg.PanicTenants = []int{1}
				cfg.PanicEpoch = 3
			}
			f, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if tc.stopAt == 0 {
				_, err = f.Run()
			}
			for err == nil && f.Epoch() < tc.stopAt {
				err = f.RunEpoch()
			}
			if err != nil {
				t.Fatal(err)
			}
			cp, err := f.Checkpoint()
			if err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			kpis, ts, slo, err := CheckpointView(cp, resumeBase(cfg))
			if err != nil {
				t.Fatalf("CheckpointView: %v", err)
			}
			for _, pair := range []struct {
				what       string
				view, live any
			}{
				{"kpis", kpis, f.KPIs()},
				{"timeseries", ts, f.TimeSeries()},
				{"slo", slo, f.SLOStatus()},
			} {
				v, err := json.Marshal(pair.view)
				if err != nil {
					t.Fatal(err)
				}
				l, err := json.Marshal(pair.live)
				if err != nil {
					t.Fatal(err)
				}
				if string(v) != string(l) {
					t.Errorf("%s: checkpoint view diverges from live payload:\nview: %s\nlive: %s", pair.what, v, l)
				}
			}
		})
	}
}

// TestLoadCheckpointRejectsMalformed: version skew, structural damage,
// and plain garbage must all fail loudly at load time.
func TestLoadCheckpointRejectsMalformed(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(2, 1)
	cfg.Epochs = 4
	cfg.CheckpointDir = dir
	cfg.CheckpointEvery = 4
	runFleet(t, cfg)
	path := filepath.Join(dir, checkpointFileName(4))
	good, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}

	rewrite := func(mutate func(*Checkpoint)) string {
		cp := *good
		cp.Tenants = append([]TenantCheckpoint(nil), good.Tenants...)
		mutate(&cp)
		out := filepath.Join(t.TempDir(), "mutated.ckpt.json")
		if err := writeCheckpointFile(out, &cp); err != nil {
			t.Fatal(err)
		}
		return out
	}

	cases := []struct {
		name   string
		path   string
		errHas string
	}{
		{"version skew", rewrite(func(cp *Checkpoint) { cp.Version = 99 }), "unsupported version"},
		{"epoch beyond horizon", rewrite(func(cp *Checkpoint) { cp.Epoch = cp.Config.Epochs + 1 }), "beyond configured horizon"},
		{"tenant count mismatch", rewrite(func(cp *Checkpoint) { cp.Tenants = cp.Tenants[:1] }), "tenant entries"},
		{"index disorder", rewrite(func(cp *Checkpoint) { cp.Tenants[0].Index = 1 }), "has index"},
		{"quarantine without KPI", rewrite(func(cp *Checkpoint) {
			cp.Tenants[0].Quarantined = true
			cp.Tenants[0].QuarantineEpoch = 2
		}), "without a frozen KPI"},
	}
	garbage := filepath.Join(t.TempDir(), "garbage.ckpt.json")
	if err := os.WriteFile(garbage, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases = append(cases, struct {
		name   string
		path   string
		errHas string
	}{"garbage", garbage, "invalid character"})

	for _, tc := range cases {
		if _, err := LoadCheckpoint(tc.path); err == nil || !strings.Contains(err.Error(), tc.errHas) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.errHas)
		}
	}
}

// TestLoadCheckpointRejectsV1: a checkpoint written in format v1 (the
// committed fixture came from a real v1 kwo-fleet run) is refused for
// its version, not misread as v2 state.
func TestLoadCheckpointRejectsV1(t *testing.T) {
	_, err := LoadCheckpoint(filepath.Join("testdata", "v1.ckpt.json"))
	if want := "unsupported version 1 (this build reads 2)"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("v1 checkpoint: err = %v, want %q", err, want)
	}
}

// TestResumeRejectsTamper: a checkpoint whose recorded state does not
// match what the deterministic replay reproduces must be refused —
// silent divergence would corrupt everything after the resume. Every
// digest is flipped in turn, and the error names the component (and the
// tenant, for a tenant's digest).
func TestResumeRejectsTamper(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(2, 1)
	cfg.Epochs = 4
	cfg.CheckpointDir = dir
	cfg.CheckpointEvery = 4
	runFleet(t, cfg)
	path := filepath.Join(dir, checkpointFileName(4))

	cases := []struct{ tenant, component string }{
		{"", "series"},
		{"", "alerts"},
		{"t00", "sched"},
		{"t00", "events"},
		{"t00", "billing"},
		{"t00", "recorder"},
	}
	for _, c := range cases {
		cp, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(cp.Digests) + len(cp.Tenants[0].Digests); n != len(cases) {
			t.Fatalf("checkpoint carries %d digests, the cases cover %d", n, len(cases))
		}
		d, want := cp.Digests, "fleet "+c.component+" digest diverged"
		if c.tenant != "" {
			d, want = cp.Tenants[0].Digests, "tenant "+c.tenant+" "+c.component+" digest diverged"
		}
		if _, ok := d[c.component]; !ok {
			t.Fatalf("checkpoint has no %q digest for %q", c.component, c.tenant)
		}
		d[c.component] = digest([]byte("tampered"))
		if _, err := Resume(cp, resumeBase(cfg)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("tampered %s %s digest: err = %v, want %q", c.tenant, c.component, err, want)
		}
	}

	// A checkpointed config that defaulting would alter is a config from
	// a different build — the merge guard must catch it before replay.
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	cp.Config.SeriesBudget = 0
	if _, err := Resume(cp, resumeBase(cfg)); err == nil || !strings.Contains(err.Error(), "config mismatch") {
		t.Fatalf("defaulting-altered config: err = %v, want config mismatch", err)
	}
}

// TestLatestCheckpoint: newest loadable wins; corrupt newer files are
// skipped rather than masking an older good checkpoint; torn .tmp
// leftovers are invisible; an empty dir is a clean error.
func TestLatestCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(2, 1)
	cfg.Epochs = 8
	cfg.CheckpointDir = dir
	cfg.CheckpointEvery = 4
	runFleet(t, cfg)

	cp, path, err := LatestCheckpoint(dir)
	if err != nil {
		t.Fatalf("LatestCheckpoint: %v", err)
	}
	if cp.Epoch != 8 || filepath.Base(path) != checkpointFileName(8) {
		t.Fatalf("latest = epoch %d (%s), want 8", cp.Epoch, path)
	}

	// Corrupt the newest; the older good file must be found behind it.
	if err := os.WriteFile(path, []byte("torn write"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A stray temp file must never be considered.
	tmp := filepath.Join(dir, checkpointFileName(99)+".tmp")
	if err := os.WriteFile(tmp, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	cp, path, err = LatestCheckpoint(dir)
	if err != nil {
		t.Fatalf("LatestCheckpoint with corrupt head: %v", err)
	}
	if cp.Epoch != 4 || filepath.Base(path) != checkpointFileName(4) {
		t.Fatalf("latest behind corrupt head = epoch %d (%s), want 4", cp.Epoch, path)
	}

	if _, _, err := LatestCheckpoint(t.TempDir()); err == nil || !strings.Contains(err.Error(), "no checkpoint found") {
		t.Fatalf("empty dir: err = %v, want no checkpoint found", err)
	}
}

func TestWriteCheckpointRequiresDir(t *testing.T) {
	cfg := testConfig(1, 1)
	cfg.Epochs = 2
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.WriteCheckpoint(); err == nil || !strings.Contains(err.Error(), "no CheckpointDir") {
		t.Fatalf("err = %v, want no CheckpointDir configured", err)
	}
}
