package kwo

import (
	"net/http"
	"time"

	"kwo/internal/fleet"
	"kwo/internal/obs"
)

// Fleet-scale multi-tenant running: a Fleet provisions N independent
// simulated tenants (each its own clock, account, telemetry store, obs
// hub, and optimizer) from one seed and advances them in lock-step
// epochs through a bounded worker pool. Results are byte-identical for
// any worker count. See internal/fleet for the full contract.
type (
	// FleetConfig shapes a fleet run (tenant count, seed, epochs, …).
	FleetConfig = fleet.Config
	// FleetReport is the cross-fleet rollup: fleet KPIs, every
	// tenant's row, and the top-K regressed tenants.
	FleetReport = fleet.Report
	// TenantKPI is one tenant's row in the fleet rollup.
	TenantKPI = fleet.TenantKPI
	// FleetSLO holds the fleet's SLO thresholds (FleetConfig.SLO); zero
	// fields take the documented defaults.
	FleetSLO = obs.SLOConfig
	// SLOVerdict is one evaluated SLO objective: value, target,
	// pass/fail, and error-budget burn.
	SLOVerdict = obs.Verdict
	// FleetLiveKPIs is the /fleet/kpis payload.
	FleetLiveKPIs = fleet.LiveKPIs
	// FleetTenantLive is one tenant's row in the /fleet/kpis payload.
	FleetTenantLive = fleet.TenantLive
	// ObsSeriesDump is the compact JSON encoding of one recorded time
	// series ([unix_seconds, value] points).
	ObsSeriesDump = obs.SeriesDump
	// FleetTimeSeries is the /fleet/timeseries payload.
	FleetTimeSeries = fleet.FleetTimeSeries
	// FleetSLOStatus is the /fleet/slo payload.
	FleetSLOStatus = fleet.SLOStatus
	// FleetCheckpoint is one epoch-aligned crash-recovery checkpoint.
	FleetCheckpoint = fleet.Checkpoint
	// FleetCheckpointConfig is the behaviour-affecting config subset a
	// checkpoint pins.
	FleetCheckpointConfig = fleet.CheckpointConfig
	// FleetAlertSummary is the alert-plane rollup in the SLO payload.
	FleetAlertSummary = fleet.AlertSummary
	// FleetAlert is one structured alert event (SLO breach/recovery or
	// tenant quarantine), sequenced deterministically on the sim clock.
	FleetAlert = obs.Alert
)

// Alert kinds written to a FleetConfig.AlertLog.
const (
	AlertSLOBreach   = obs.AlertSLOBreach
	AlertSLORecovery = obs.AlertSLORecovery
	AlertQuarantine  = obs.AlertQuarantine
)

// Fleet is a provisioned multi-tenant run.
type Fleet struct {
	f *fleet.Fleet
}

// NewFleet provisions a fleet of independent tenants from cfg.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	f, err := fleet.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Fleet{f: f}, nil
}

// Run drives all remaining epochs and returns the cross-fleet rollup.
func (f *Fleet) Run() (*FleetReport, error) { return f.f.Run() }

// RunEpoch advances every tenant exactly one epoch.
func (f *Fleet) RunEpoch() error { return f.f.RunEpoch() }

// Close releases the fleet's persistent worker-pool goroutines.
// Idempotent; the fleet stays usable afterwards (work runs inline).
func (f *Fleet) Close() { f.f.Close() }

// Epoch returns how many epochs have completed.
func (f *Fleet) Epoch() int { return f.f.Epoch() }

// Now returns the fleet's current epoch-boundary virtual time.
func (f *Fleet) Now() time.Time { return f.f.Now() }

// ObsHandler returns the fleet ops HTTP handler: every tenant's
// metrics merged into one /metrics exposition behind a tenant label,
// plus /events, the /fleet/kpis | /fleet/timeseries | /fleet/slo JSON
// payloads, and /healthz.
func (f *Fleet) ObsHandler() http.Handler { return fleet.Handler(f.f) }

// KPIs returns the live fleet KPI payload (the /fleet/kpis body).
func (f *Fleet) KPIs() FleetLiveKPIs { return f.f.KPIs() }

// TimeSeries returns the recorded epoch series (the /fleet/timeseries
// body).
func (f *Fleet) TimeSeries() FleetTimeSeries { return f.f.TimeSeries() }

// SLOStatus returns per-tenant SLO verdicts (the /fleet/slo body).
func (f *Fleet) SLOStatus() FleetSLOStatus { return f.f.SLOStatus() }

// Alerts returns the deterministic alert log so far: SLO breaches,
// recoveries, and tenant quarantines in sequence order.
func (f *Fleet) Alerts() []FleetAlert { return f.f.Alerts() }

// Checkpoint records the fleet at its current epoch boundary.
func (f *Fleet) Checkpoint() (*FleetCheckpoint, error) { return f.f.Checkpoint() }

// WriteCheckpoint records the fleet and writes the checkpoint
// atomically into FleetConfig.CheckpointDir.
func (f *Fleet) WriteCheckpoint() error { return f.f.WriteCheckpoint() }

// LoadFleetCheckpoint reads and validates one checkpoint file.
func LoadFleetCheckpoint(path string) (*FleetCheckpoint, error) {
	return fleet.LoadCheckpoint(path)
}

// LatestFleetCheckpoint returns the newest loadable checkpoint in dir
// and its path.
func LatestFleetCheckpoint(dir string) (*FleetCheckpoint, string, error) {
	return fleet.LatestCheckpoint(dir)
}

// ResumeFleet reconstructs a running fleet from a checkpoint: fresh
// provision under the merged config, deterministic replay of the
// checkpointed epochs (alert log not written), and verification of the
// replayed state's per-component digests against the checkpoint's.
// Continuing the resumed fleet produces a report fingerprint
// byte-identical to an uninterrupted run.
func ResumeFleet(cp *FleetCheckpoint, base FleetConfig) (*Fleet, error) {
	f, err := fleet.Resume(cp, base)
	if err != nil {
		return nil, err
	}
	return &Fleet{f: f}, nil
}

// FleetCheckpointView rebuilds the fleet ops payloads of a checkpointed
// run — offline inspection of a crashed run. It resumes the checkpoint
// under base as ResumeFleet does, replaying its epochs and refusing a
// checkpoint this build cannot reproduce, so the payloads equal the
// live ones the run served at that epoch.
func FleetCheckpointView(cp *FleetCheckpoint, base FleetConfig) (FleetLiveKPIs, FleetTimeSeries, FleetSLOStatus, error) {
	return fleet.CheckpointView(cp, base)
}

// FleetTenantSeed derives tenant idx's simulation seed from a fleet
// seed. ReplayFleetTenant (or `kwo-fleet -tenant-seed`) runs that
// tenant standalone, byte-identical to its in-fleet run.
func FleetTenantSeed(fleetSeed int64, idx int) int64 {
	return fleet.TenantSeed(fleetSeed, idx)
}

// ReplayFleetTenant replays one tenant standalone under the given seed
// and fleet config, returning its KPI row.
func ReplayFleetTenant(seed int64, cfg FleetConfig) (TenantKPI, error) {
	return fleet.ReplayTenant(seed, cfg)
}
