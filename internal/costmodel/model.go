package costmodel

import (
	"math"
	"time"

	"kwo/internal/action"
	"kwo/internal/cdw"
	"kwo/internal/cdw/backend"
	"kwo/internal/ml"
	"kwo/internal/telemetry"
)

// Model is the trained warehouse cost model for one warehouse: the
// latency-scaling, query-gap and cluster-count estimators of §5.2 plus
// the customer's original (without-Keebo) configuration, against which
// all what-if replays are run.
type Model struct {
	Latency  *LatencyModel
	Gaps     *GapModel
	Clusters *ClusterModel
	// Orig is the configuration the customer had before KWO; the
	// without-Keebo counterfactual holds it fixed.
	Orig cdw.Config
	// Slots is the per-cluster concurrency of the underlying CDW.
	Slots int
	// Billing is the backend's billing quantization; the counterfactual
	// replay bills busy periods under the same rule the live meter
	// does. Train always sets it explicitly (Snowflake by default).
	Billing backend.BillingRule
}

// Train fits all parameter estimators from the telemetry in [from, to).
// orig is the customer's original configuration. The counterfactual
// bills under the default Snowflake rule; use TrainWithBilling when the
// warehouse lives on a different backend.
func Train(log *telemetry.WarehouseLog, orig cdw.Config, from, to time.Time, slots int) *Model {
	return TrainWithBilling(log, orig, from, to, slots, cdw.DefaultBackend().Billing())
}

// TrainWithBilling is Train with an explicit backend billing rule for
// the without-Keebo counterfactual.
func TrainWithBilling(log *telemetry.WarehouseLog, orig cdw.Config, from, to time.Time,
	slots int, billing backend.BillingRule) *Model {
	if slots <= 0 {
		slots = 8
	}
	return &Model{
		Latency:  FitLatency(log.TemplateObservations(from, to)),
		Gaps:     FitGaps(log.Gaps(from, to)),
		Clusters: FitClusters(log, orig, from, to, slots),
		Orig:     orig,
		Slots:    slots,
		Billing:  billing,
	}
}

// ---------------------------------------------------------------------
// Action-impact prediction: "the cost model ... predicts the impact of
// each decision on cost and performance" (§4.3). The smart model
// consults these estimates before acting; the estimates use the same
// learned parameters as the replay.

// Impact is the predicted effect of applying an action now.
type Impact struct {
	// CreditsPerHour is the predicted billing rate after the action.
	CreditsPerHour float64
	// DeltaCreditsPerHour is CreditsPerHour(after) − (before);
	// negative means the action saves money.
	DeltaCreditsPerHour float64
	// LatencyFactor is the predicted multiplicative change in average
	// query latency (1 = unchanged, >1 = slower).
	LatencyFactor float64
	// QueueRisk estimates the probability mass of new queueing the
	// action introduces, in [0, 1].
	QueueRisk float64
}

// EstimateCPH predicts the steady-state credits/hour of a configuration
// under the workload summarized by ws. It combines an M/G/∞ busy-
// fraction estimate with the gap model's idle-billing estimate and the
// cluster model's parallelism prediction.
func (m *Model) EstimateCPH(ws telemetry.WindowStats, cfg cdw.Config) float64 {
	execSecs := m.Latency.ScaleExec(0, ws.AvgExec.Seconds(), averageSize(ws), cfg.Size)
	rho := ws.QPH / 3600 * execSecs
	busyFrac := 1 - math.Exp(-rho)
	idlePerGap := m.Gaps.IdleBilledPerGap(cfg.AutoSuspend)
	idleFrac := ml.Clamp(ws.QPH*idlePerGap/3600, 0, 1-busyFrac)
	clusters := 1.0
	if cfg.MaxClusters > 1 {
		clusters = m.Clusters.Predict(ws.QPH, execSecs, cfg.MaxClusters)
		// The Economy policy keeps clusters fully loaded before scaling
		// out, trimming the average cluster count at some queueing risk.
		if cfg.Policy == cdw.ScaleEconomy && clusters > 1 {
			clusters = 1 + (clusters-1)*economyClusterFactor
		}
	}
	if clusters < float64(cfg.MinClusters) {
		clusters = float64(cfg.MinClusters)
	}
	return cfg.Size.CreditsPerHour() * clusters * (busyFrac + idleFrac)
}

// economyClusterFactor is the assumed reduction of the average extra
// cluster count under the Economy scale-out policy.
const economyClusterFactor = 0.8

// averageSize rounds the window's mean executed size to a Size.
func averageSize(ws telemetry.WindowStats) cdw.Size {
	s := cdw.Size(int(math.Round(ws.AvgSize)))
	return s.Clamp(cdw.MinSize, cdw.MaxSize)
}

// LatencyFactorVsBaseline predicts the multiplicative latency change of
// running under cfg relative to running under base — the cumulative
// degradation the customer would perceive against their original
// configuration. It combines the learned size-scaling slope with the
// extra cold-cache reads a shorter auto-suspend interval induces.
func (m *Model) LatencyFactorVsBaseline(cfg, base cdw.Config) float64 {
	f := math.Exp2(m.Latency.LogStep() * float64(cfg.Size-base.Size))
	extraCold := m.Gaps.SuspendFraction(cfg.AutoSuspend) - m.Gaps.SuspendFraction(base.AutoSuspend)
	if extraCold > 0 {
		f *= 1 + extraCold*(m.Latency.ColdRatio()-1)
	}
	if f < 0.01 {
		f = 0.01
	}
	return f
}

// PredictImpact estimates the cost and performance impact of act
// applied to cfg under workload ws.
func (m *Model) PredictImpact(ws telemetry.WindowStats, cfg cdw.Config, act action.Action) Impact {
	before := m.EstimateCPH(ws, cfg)
	next := act.Target(cfg)
	after := m.EstimateCPH(ws, next)
	imp := Impact{
		CreditsPerHour:      after,
		DeltaCreditsPerHour: after - before,
		LatencyFactor:       1,
	}
	switch act.Kind {
	case action.SizeUp, action.SizeDown:
		// Latency scales with the learned per-step factor; only the
		// execution portion of latency changes.
		steps := float64(next.Size - cfg.Size)
		imp.LatencyFactor = math.Exp2(m.Latency.LogStep() * steps)
	case action.SuspendShorter, action.SuspendLonger:
		// A shorter interval suspends more often → more cold resumes.
		oldFrac := m.Gaps.SuspendFraction(cfg.AutoSuspend)
		newFrac := m.Gaps.SuspendFraction(next.AutoSuspend)
		extraCold := newFrac - oldFrac
		imp.LatencyFactor = 1 + extraCold*(m.Latency.ColdRatio()-1)
		if imp.LatencyFactor < 0.5 {
			imp.LatencyFactor = 0.5
		}
	case action.ClustersUp, action.ClustersDown:
		// Queue risk: offered load in clusters vs the new bound.
		execSecs := ws.AvgExec.Seconds()
		loadClusters := ws.QPH / 3600 * execSecs / float64(m.Slots)
		if float64(next.MaxClusters) < loadClusters {
			imp.QueueRisk = ml.Clamp((loadClusters-float64(next.MaxClusters))/loadClusters, 0, 1)
			imp.LatencyFactor = 1 + imp.QueueRisk
		}
	case action.PolicyEconomy:
		// Economy keeps clusters loaded: cheaper, but queries may wait
		// for slots when the load spans multiple clusters.
		if cfg.Policy != cdw.ScaleEconomy && cfg.MaxClusters > 1 {
			load := ws.QPH / 3600 * ws.AvgExec.Seconds() / float64(m.Slots)
			if load > 1 {
				imp.QueueRisk = ml.Clamp((load-1)/float64(cfg.MaxClusters), 0, 0.5)
			}
			imp.LatencyFactor = 1 + imp.QueueRisk/2
		}
	case action.PolicyStandard:
		// Standard prevents queueing by scaling out aggressively.
		if cfg.Policy == cdw.ScaleEconomy && cfg.MaxClusters > 1 {
			imp.LatencyFactor = 0.95
		}
	}
	return imp
}
