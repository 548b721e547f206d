package fleet

// Crash-safe checkpoint/restore. A fleet checkpoint is an epoch-aligned
// record of what a resume needs to rebuild the run — the epoch, the
// pinned behaviour config, and each tenant's quarantine record — plus
// SHA-256 digests of everything that evolves during the run: per
// tenant, the scheduler and workload-stream position, the trace-event
// stream, the billing watermarks, and the recorder's series rings and
// baselines; fleet-wide, the aggregate series and the alert tracker.
// Checkpoints are written atomically (temp file + rename) on the epoch
// barrier, so a crash at any instant leaves either the previous
// complete checkpoint or the new complete checkpoint — never a torn
// file.
//
// Restore is replay-based. The fleet's event queue holds closures over
// live object graphs, which no snapshot format can serialize; instead
// Resume provisions a fresh fleet from the same config and
// deterministically re-executes epochs 1..k — the determinism contract
// the fleet already holds is what makes this exact — then digests the
// replayed state and compares it with the checkpoint's, component by
// component, before handing the fleet back. Replay is cheap relative to
// re-running the whole horizon and, critically, cannot drift silently:
// any divergence (version skew, config mismatch, tampered file) fails
// loudly at resume time, naming the tenant and component, rather than
// corrupting the continued run. The alert log is not written during
// replay, so a resumed run never repeats alerts written before the
// crash.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"kwo/internal/obs"
)

// CheckpointVersion is the checkpoint file format version. Loaders
// reject any other value: a format change must not be silently
// misinterpreted as state.
const CheckpointVersion = 2

// Checkpoint is one epoch-aligned fleet checkpoint.
type Checkpoint struct {
	Version int `json:"version"`
	// Epoch is how many epochs had completed when the checkpoint was
	// taken; Now is the epoch boundary's virtual time (UnixNano).
	Epoch int   `json:"epoch"`
	Now   int64 `json:"now"`
	// Config pins the behaviour-affecting configuration. Resume refuses
	// a config that does not match: replaying under different knobs
	// would produce a different — wrong — state.
	Config CheckpointConfig `json:"config"`
	// Digests covers the fleet-wide state: "series" (the
	// fleet-aggregate series) and "alerts" (the alert tracker's
	// sequence counter, firing set and log).
	Digests Digests `json:"digests"`
	// Tenants holds one entry per tenant, in index order.
	Tenants []TenantCheckpoint `json:"tenants"`
}

// CheckpointConfig is the serializable, behaviour-affecting subset of
// Config. Operational knobs (Workers, TopK, CheckpointDir, the alert
// log, the wall clock) deliberately do not appear: none of them influence
// simulated state, so a resume may freely change them.
type CheckpointConfig struct {
	Tenants      int           `json:"tenants"`
	Seed         int64         `json:"seed"`
	Epochs       int           `json:"epochs"`
	EpochLen     time.Duration `json:"epoch_len_ns"`
	AttachEpoch  int           `json:"attach_epoch"`
	FaultRate    float64       `json:"fault_rate,omitempty"`
	FaultTenants []int         `json:"fault_tenants,omitempty"`
	Backends     []string      `json:"backends,omitempty"`
	SLO          obs.SLOConfig `json:"slo"`
	SeriesBudget int           `json:"series_budget"`
	PanicTenants []int         `json:"panic_tenants,omitempty"`
	PanicEpoch   int           `json:"panic_epoch,omitempty"`
}

// checkpointConfigOf extracts the pinned subset from a defaulted Config.
func checkpointConfigOf(c Config) CheckpointConfig {
	return CheckpointConfig{
		Tenants:      c.Tenants,
		Seed:         c.Seed,
		Epochs:       c.Epochs,
		EpochLen:     c.EpochLen,
		AttachEpoch:  c.AttachEpoch,
		FaultRate:    c.FaultRate,
		FaultTenants: append([]int(nil), c.FaultTenants...),
		Backends:     append([]string(nil), c.Backends...),
		SLO:          c.SLO,
		SeriesBudget: c.SeriesBudget,
		PanicTenants: append([]int(nil), c.PanicTenants...),
		PanicEpoch:   c.PanicEpoch,
	}
}

// Merge overlays the checkpointed behaviour knobs onto base, keeping
// base's operational knobs (Workers, TopK, CheckpointDir, AlertLog, Wall).
// This is how a resuming process reconstructs the run config from the
// checkpoint plus its own flags.
func (cc CheckpointConfig) Merge(base Config) Config {
	base.Tenants = cc.Tenants
	base.Seed = cc.Seed
	base.Epochs = cc.Epochs
	base.EpochLen = cc.EpochLen
	base.AttachEpoch = cc.AttachEpoch
	base.FaultRate = cc.FaultRate
	base.FaultTenants = append([]int(nil), cc.FaultTenants...)
	base.Backends = append([]string(nil), cc.Backends...)
	base.SLO = cc.SLO
	base.SeriesBudget = cc.SeriesBudget
	base.PanicTenants = append([]int(nil), cc.PanicTenants...)
	base.PanicEpoch = cc.PanicEpoch
	return base
}

// matches reports the first behaviour-affecting difference between the
// checkpointed config and the resuming one, or nil if they agree.
func (cc CheckpointConfig) matches(other CheckpointConfig) error {
	a, err := json.Marshal(cc)
	if err != nil {
		return err
	}
	b, err := json.Marshal(other)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("fleet: checkpoint config mismatch:\n  checkpoint: %s\n  resume:     %s", a, b)
	}
	return nil
}

// Digests maps a state component's name to the hex SHA-256 of that
// component's state. Resume compares the replayed fleet's digests with
// the checkpointed ones, so a mismatch names the component.
type Digests map[string]string

// diff names the first component, in name order, whose digest differs
// between d and other (missing on one side counts), or "" if none does.
func (d Digests) diff(other Digests) string {
	var names []string
	for _, m := range []Digests{d, other} {
		for n := range m {
			if d[n] != other[n] {
				names = append(names, n)
			}
		}
	}
	if len(names) == 0 {
		return ""
	}
	sort.Strings(names)
	return names[0]
}

// digest is the hex SHA-256 of one component's state bytes.
func digest(state []byte) string {
	sum := sha256.Sum256(state)
	return hex.EncodeToString(sum[:])
}

// TenantCheckpoint is one tenant's entry. Its digests cover the
// tenant's evolving state: "sched" (scheduler position, scheduled
// arrivals, workload cursor and RNG stream position, attach outcome),
// "events" (the trace-event stream), "billing" (billing period start
// and watermark) and "recorder" (series rings and sampling baselines).
// A quarantined tenant keeps only "recorder": the rest of its state
// stopped wherever the failure left it, and a replay restores the
// freeze instead of re-executing the failure. What it carries instead
// is the quarantine record — epoch, reason, frozen KPI row — which is
// rebuild data rather than a digest because a deadline quarantine
// depends on wall-clock time and cannot be replayed.
type TenantCheckpoint struct {
	Tenant  string  `json:"tenant"`
	Index   int     `json:"index"`
	Digests Digests `json:"digests"`

	Quarantined      bool       `json:"quarantined,omitempty"`
	QuarantineEpoch  int        `json:"quarantine_epoch,omitempty"`
	QuarantineReason string     `json:"quarantine_reason,omitempty"`
	FrozenKPI        *TenantKPI `json:"frozen_kpi,omitempty"`
}

// checkpoint builds the tenant's entry.
func (t *tenant) checkpoint() TenantCheckpoint {
	tc := TenantCheckpoint{
		Tenant:  t.id,
		Index:   t.idx,
		Digests: Digests{"recorder": digest(t.rec.AppendState(nil))},
	}
	if t.quarantined() {
		tc.Quarantined = true
		tc.QuarantineEpoch = t.qEpoch
		tc.QuarantineReason = t.qReason
		k := *t.frozen
		tc.FrozenKPI = &k
		return tc
	}
	attachErr := ""
	if t.attachErr != nil {
		attachErr = t.attachErr.Error()
	}
	tc.Digests["sched"] = digest(fmt.Appendf(nil, "%d %d %d %d %d %t %d %q",
		t.sched.Now().UnixNano(), t.sched.Steps(), t.sched.Seq(), t.sched.Pending(),
		t.scheduled, t.cursor == nil, t.wdraws.n, attachErr))
	tc.Digests["events"] = digest(fmt.Appendf(nil, "%d %s", t.hub.Bus.Total(), t.eventsSum()))
	var bill [2]int64
	if t.eng != nil {
		if bs, err := t.eng.BillingPeriodStart(warehouseName); err == nil && !bs.IsZero() {
			bill[0] = bs.UnixNano()
		}
		if wm, err := t.eng.BillingWatermark(warehouseName); err == nil && !wm.IsZero() {
			bill[1] = wm.UnixNano()
		}
	}
	tc.Digests["billing"] = digest(fmt.Appendf(nil, "%d", bill))
	return tc
}

// Checkpoint records the fleet at its current epoch boundary. Callers
// drive it between epochs (RunEpoch calls it on the barrier); the plane
// lock orders it against concurrent ops scrapes.
func (f *Fleet) Checkpoint() (*Checkpoint, error) {
	f.plane.mu.Lock()
	defer f.plane.mu.Unlock()
	var series []byte
	for _, s := range f.plane.fleet {
		series = s.AppendState(series)
	}
	tr := f.plane.tracker
	alerts := fmt.Appendf(nil, "%d %q\n", tr.Seq(), tr.FiringKeys())
	for _, a := range tr.Log() {
		alerts = append(append(alerts, a.JSON()...), '\n')
	}
	cp := &Checkpoint{
		Version: CheckpointVersion,
		Epoch:   f.epoch,
		Now:     f.Now().UnixNano(),
		Config:  checkpointConfigOf(f.cfg),
		Digests: Digests{"series": digest(series), "alerts": digest(alerts)},
		Tenants: make([]TenantCheckpoint, len(f.tenants)),
	}
	for i, t := range f.tenants {
		cp.Tenants[i] = t.checkpoint()
	}
	return cp, nil
}

// checkpointFileName is the epoch-stamped on-disk name; zero-padding
// keeps lexicographic order equal to epoch order.
func checkpointFileName(epoch int) string {
	return fmt.Sprintf("fleet-epoch-%06d.ckpt.json", epoch)
}

// WriteCheckpoint records the fleet and writes it atomically into
// Config.CheckpointDir: the bytes land in a temp file first and the
// final name appears only via rename, so readers (and crashes) never
// see a partial checkpoint.
func (f *Fleet) WriteCheckpoint() error {
	if f.cfg.CheckpointDir == "" {
		return fmt.Errorf("fleet: WriteCheckpoint: no CheckpointDir configured")
	}
	cp, err := f.Checkpoint()
	if err != nil {
		return err
	}
	return writeCheckpointFile(filepath.Join(f.cfg.CheckpointDir, checkpointFileName(cp.Epoch)), cp)
}

func writeCheckpointFile(path string, cp *Checkpoint) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(cp, "", " ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	tf, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := tf.Write(append(data, '\n')); err != nil {
		tf.Close()
		os.Remove(tmp)
		return err
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		os.Remove(tmp)
		return err
	}
	if err := tf.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadCheckpoint reads and validates one checkpoint file.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cp, err := parseCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("fleet: checkpoint %s: %w", path, err)
	}
	return cp, nil
}

// parseCheckpoint decodes and validates checkpoint bytes.
func parseCheckpoint(data []byte) (*Checkpoint, error) {
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, err
	}
	if err := cp.validate(); err != nil {
		return nil, err
	}
	return &cp, nil
}

// validate checks the structural invariants a loaded checkpoint must
// hold before anything trusts it.
func (cp *Checkpoint) validate() error {
	if cp.Version != CheckpointVersion {
		return fmt.Errorf("unsupported version %d (this build reads %d)", cp.Version, CheckpointVersion)
	}
	if cp.Epoch < 1 {
		return fmt.Errorf("invalid epoch %d", cp.Epoch)
	}
	if cp.Config.Tenants <= 0 || len(cp.Tenants) != cp.Config.Tenants {
		return fmt.Errorf("has %d tenant entries, config says %d", len(cp.Tenants), cp.Config.Tenants)
	}
	if cp.Epoch > cp.Config.Epochs {
		return fmt.Errorf("epoch %d beyond configured horizon %d", cp.Epoch, cp.Config.Epochs)
	}
	for i, tc := range cp.Tenants {
		if tc.Index != i {
			return fmt.Errorf("tenant entry %d has index %d", i, tc.Index)
		}
		if tc.Quarantined && tc.FrozenKPI == nil {
			return fmt.Errorf("tenant %s quarantined without a frozen KPI", tc.Tenant)
		}
		if tc.Quarantined && (tc.QuarantineEpoch < 1 || tc.QuarantineEpoch > cp.Epoch) {
			return fmt.Errorf("tenant %s quarantine epoch %d outside [1, %d]",
				tc.Tenant, tc.QuarantineEpoch, cp.Epoch)
		}
	}
	return nil
}

// LatestCheckpoint returns the newest loadable checkpoint in dir. Files
// that fail to load (torn leftovers, foreign files, version skew) are
// skipped with their errors collected, so one bad file cannot mask an
// older good checkpoint behind it.
func LatestCheckpoint(dir string) (*Checkpoint, string, error) {
	names, err := filepath.Glob(filepath.Join(dir, "fleet-epoch-*.ckpt.json"))
	if err != nil {
		return nil, "", err
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	var errs []string
	for _, name := range names {
		cp, err := LoadCheckpoint(name)
		if err != nil {
			errs = append(errs, err.Error())
			continue
		}
		return cp, name, nil
	}
	if len(errs) > 0 {
		return nil, "", fmt.Errorf("fleet: no loadable checkpoint in %s: %s", dir, strings.Join(errs, "; "))
	}
	return nil, "", fmt.Errorf("fleet: no checkpoint found in %s", dir)
}

// Resume reconstructs a running fleet from a checkpoint: provision a
// fresh fleet under the merged config, deterministically replay epochs
// 1..cp.Epoch (alert log not written, watchdog off), and verify
// the replayed state's digests against the checkpoint's. The returned
// fleet stands exactly where the interrupted one stood — continuing it
// produces a byte-identical report fingerprint to a run that was never
// interrupted.
func Resume(cp *Checkpoint, base Config) (*Fleet, error) {
	if err := cp.validate(); err != nil {
		return nil, fmt.Errorf("fleet: resume: %w", err)
	}
	cfg, err := cp.Config.Merge(base).withDefaults()
	if err != nil {
		return nil, fmt.Errorf("fleet: resume: %w", err)
	}
	if err := cp.Config.matches(checkpointConfigOf(cfg)); err != nil {
		return nil, err
	}
	f, err := New(cfg)
	if err != nil {
		return nil, err
	}
	for i, tc := range cp.Tenants {
		if tc.Quarantined {
			k := *tc.FrozenKPI
			f.tenants[i].qResume = &resumeQuarantine{
				epoch:  tc.QuarantineEpoch,
				reason: tc.QuarantineReason,
				kpi:    &k,
			}
		}
	}
	f.replaying = true
	for f.epoch < cp.Epoch {
		if err := f.RunEpoch(); err != nil {
			f.Close()
			return nil, fmt.Errorf("fleet: resume replay: %w", err)
		}
	}
	f.replaying = false
	if err := f.verifyCheckpoint(cp); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// verifyCheckpoint digests the replayed fleet and compares it to the
// checkpoint. Replay determinism makes equality the expected case; any
// difference means the checkpoint does not belong to this config or
// build, and the resume must not continue.
func (f *Fleet) verifyCheckpoint(cp *Checkpoint) error {
	got, err := f.Checkpoint()
	if err != nil {
		return fmt.Errorf("fleet: resume verify: %w", err)
	}
	if got.Epoch != cp.Epoch || got.Now != cp.Now {
		return fmt.Errorf("fleet: resume verify: replay stands at epoch %d/now %d, checkpoint has %d/%d",
			got.Epoch, got.Now, cp.Epoch, cp.Now)
	}
	if c := got.Digests.diff(cp.Digests); c != "" {
		return fmt.Errorf("fleet: resume verify: fleet %s digest diverged", c)
	}
	for i := range cp.Tenants {
		want, have := cp.Tenants[i], got.Tenants[i]
		if want.Quarantined {
			// The freeze was restored, not re-executed; epoch and reason
			// are the record to check, the KPI row came from the
			// checkpoint itself.
			if !have.Quarantined || have.QuarantineEpoch != want.QuarantineEpoch ||
				have.QuarantineReason != want.QuarantineReason {
				return fmt.Errorf("fleet: resume verify: tenant %s quarantine state diverged", want.Tenant)
			}
		} else if have.Quarantined {
			return fmt.Errorf("fleet: resume verify: tenant %s quarantined during replay: %s",
				want.Tenant, have.QuarantineReason)
		}
		if c := have.Digests.diff(want.Digests); c != "" {
			return fmt.Errorf("fleet: resume verify: tenant %s %s digest diverged", want.Tenant, c)
		}
	}
	return nil
}

// CheckpointView rebuilds the fleet ops payloads (live KPIs, time
// series, SLO status) of a checkpointed run: it resumes the checkpoint
// under base, exactly as Resume does — replaying its epochs and
// refusing a checkpoint this build cannot reproduce — and reads the
// payloads off the resumed fleet, so the offline view equals the live
// one by construction. A checkpoint of the final epoch reads as a
// finished run. The portal uses it to inspect a crashed run offline.
func CheckpointView(cp *Checkpoint, base Config) (LiveKPIs, FleetTimeSeries, SLOStatus, error) {
	f, err := Resume(cp, base)
	if err != nil {
		return LiveKPIs{}, FleetTimeSeries{}, SLOStatus{}, fmt.Errorf("fleet: checkpoint view: %w", err)
	}
	defer f.Close()
	if f.epoch == f.cfg.Epochs {
		f.finish()
	}
	return f.KPIs(), f.TimeSeries(), f.SLOStatus(), nil
}
