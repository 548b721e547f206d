package core

import (
	"math/rand"
	"time"

	"kwo/internal/action"
	"kwo/internal/cdw"
	"kwo/internal/cdw/backend"
	"kwo/internal/costmodel"
	"kwo/internal/ml"
	"kwo/internal/monitor"
	"kwo/internal/policy"
	"kwo/internal/rl"
	"kwo/internal/telemetry"
)

// SmartModel is the per-warehouse decision maker of §4.3. It owns a DQN
// agent trained on this warehouse's telemetry, and at every decision
// tick combines four inputs: the agent's learned ranking, the cost
// model's impact predictions, the customer's constraints and slider,
// and the monitor's real-time feedback.
type SmartModel struct {
	Warehouse string
	settings  WarehouseSettings

	agent   *rl.Agent
	cost    *costmodel.Model
	mon     *monitor.Monitor
	backoff *policy.Backoff
	rng     *rand.Rand

	// billing is the backend's billing quantization, threaded into the
	// cost model at training time so counterfactual replays bill the way
	// the live meter does; caps is the backend's capability set, used to
	// skip action kinds the backend cannot execute (proposing them would
	// only burn actuator attempts on permanent CapabilityErrors).
	billing backend.BillingRule
	caps    backend.Capability

	// orig is the customer's configuration at attach time: the
	// without-Keebo counterfactual baseline.
	orig cdw.Config
	// expected is the configuration KWO believes is in effect; a
	// mismatch in the change log means an external actor intervened.
	expected cdw.Config
	// paused is set when an external change is detected; optimization
	// resumes only when the change is undone or the admin intervenes.
	paused bool
	// preExternal remembers the config before the external change so
	// un-doing can be detected.
	preExternal cdw.Config
	// enforceRestore remembers the configuration that was in effect
	// before a constraint enforcement window changed it, so the window
	// ending restores it.
	enforceRestore *cdw.Config

	// Online-RL bookkeeping.
	lastState   []float64
	lastAction  action.Kind
	haveLast    bool
	lastCredits float64 // cumulative credits at the previous tick

	windows    int // decision ticks observed
	attachedAt time.Time
	// pressureStreak counts consecutive ticks with live performance
	// pressure; queueStreak counts consecutive ticks with objective
	// queueing. Provisioning beyond the original configuration requires
	// sustained queueing — latency variance alone only justifies
	// restoring the original.
	pressureStreak int
	queueStreak    int
	// execEWMA tracks the workload's typical average execution time
	// across busy windows, so latency budgets are judged against the
	// real workload rather than a quiet night window.
	execEWMA    ml.EWMA
	hourStart   time.Time
	actionsHour int

	// Counters for reports and tests.
	Applied     int
	Reverts     int
	Constrained int // constraint enforcements applied
	Pauses      int

	// Observation trail for harnesses: the latest monitor snapshot the
	// engine handed to this model, and how many of those snapshots were
	// degraded. Updated once per decision tick.
	lastSnap      monitor.Snapshot
	haveSnap      bool
	degradedTicks int
}

func newSmartModel(warehouse string, orig cdw.Config, settings WarehouseSettings,
	store *telemetry.Store, rng *rand.Rand, opts Options) *SmartModel {

	tuning := settings.Slider.Tuning()
	th := monitor.DefaultThresholds()
	// The slider scales spike sensitivity: conservative positions trip
	// the detectors earlier.
	th.LatencySpikeFactor = 1 + (th.LatencySpikeFactor-1)*tuning.SpikeSensitivity
	th.QueueSpikeFactor = 1 + (th.QueueSpikeFactor-1)*tuning.SpikeSensitivity
	th.LoadSpikeFactor = 1 + (th.LoadSpikeFactor-1)*tuning.SpikeSensitivity

	rlCfg := opts.RL
	rlCfg.EpsilonMin = tuning.Explore

	sm := &SmartModel{
		Warehouse: warehouse,
		settings:  settings,
		agent:     rl.NewAgent(rng, rlCfg),
		mon:       monitor.New(store, warehouse, opts.DecideEvery, th),
		backoff:   policy.NewBackoff(2, tuning.CooldownTicks),
		rng:       rng,
		orig:      orig,
		expected:  orig,
	}
	sm.setBackend(cdw.DefaultBackend())
	return sm
}

// setBackend adopts a backend's billing rule and capability set. The
// engine calls it at attach time; newSmartModel defaults to Snowflake
// so models built outside an engine keep historical behaviour.
func (sm *SmartModel) setBackend(b backend.Backend) {
	sm.billing = b.Billing()
	sm.caps = backend.CapabilitiesOf(b)
}

// kindSupported reports whether the backend can execute the action
// kind at all. Unsupported kinds are filtered before ranking ever
// proposes them: on a backend without auto-suspend, SuspendShorter
// would not merely fail — clamping 0 to the 30s floor would turn
// auto-suspend ON, a semantic change the backend has no concept of.
func (sm *SmartModel) kindSupported(kind action.Kind) bool {
	switch kind {
	case action.ClustersUp, action.ClustersDown, action.PolicyEconomy, action.PolicyStandard:
		return sm.caps&backend.CapMultiCluster != 0
	case action.SuspendShorter, action.SuspendLonger:
		return sm.caps&backend.CapAutoSuspend != 0
	case action.SizeUp, action.SizeDown:
		return sm.caps&backend.CapResize != 0
	}
	return true
}

// Settings returns the current customer settings.
func (sm *SmartModel) Settings() WarehouseSettings { return sm.settings }

// SetSlider re-calibrates the model for a new slider position without
// retraining (§4.3: "there is no need for retraining the smart model
// from scratch").
func (sm *SmartModel) SetSlider(s policy.Slider) {
	sm.settings.Slider = s
	sm.agent.SetEpsilonFloor(s.Tuning().Explore)
	sm.backoff = policy.NewBackoff(2, s.Tuning().CooldownTicks)
}

// SetConstraints replaces the constraint rules.
func (sm *SmartModel) SetConstraints(cs policy.Constraints) { sm.settings.Constraints = cs }

// Orig returns the without-Keebo baseline configuration.
func (sm *SmartModel) Orig() cdw.Config { return sm.orig }

// Paused reports whether optimization is paused due to an external
// change.
func (sm *SmartModel) Paused() bool { return sm.paused }

// ResumeOptimization clears the external-change pause (the admin
// explicitly asked optimizations to continue, §4.4).
func (sm *SmartModel) ResumeOptimization(current cdw.Config) {
	sm.paused = false
	sm.expected = current
}

// CostModel returns the trained warehouse cost model (nil before the
// first training pass).
func (sm *SmartModel) CostModel() *costmodel.Model { return sm.cost }

// Monitor returns the model's real-time monitor. Callers must not
// invoke Observe on it (that would fold extra windows into the
// baselines); use Peek and the read-only accessors instead.
func (sm *SmartModel) Monitor() *monitor.Monitor { return sm.mon }

// LastSnapshot returns the most recent monitor snapshot the engine
// handed to this model; ok is false before the first decision tick.
func (sm *SmartModel) LastSnapshot() (snap monitor.Snapshot, ok bool) {
	return sm.lastSnap, sm.haveSnap
}

// DegradedTicks returns how many decision ticks observed a degraded
// snapshot — harnesses use it to assert the monitor's detection SLA.
func (sm *SmartModel) DegradedTicks() int { return sm.degradedTicks }

// DecisionWindows returns how many decision ticks the model has seen.
func (sm *SmartModel) DecisionWindows() int { return sm.windows }

// noteSnapshot records the snapshot the engine observed this tick.
func (sm *SmartModel) noteSnapshot(snap monitor.Snapshot) {
	sm.lastSnap = snap
	sm.haveSnap = true
	if snap.Degraded {
		sm.degradedTicks++
	}
}

// retrain refreshes the cost model and runs an offline training pass
// over historical windows (Algorithm 1 lines 14–16).
func (sm *SmartModel) retrain(log *telemetry.WarehouseLog, from, to time.Time, slots int, opts Options) {
	sm.cost = costmodel.TrainWithBilling(log, sm.orig, from, to, slots, sm.billing)
	ts := OfflineTransitions(log, sm.cost, sm.orig, from, to, opts.DecideEvery,
		sm.settings.Slider.Tuning())
	if len(ts) > 0 {
		sm.agent.Pretrain(ts, opts.PretrainSteps)
	}
}

// PerfPenalty turns a monitor snapshot into the scalar performance
// penalty used by the reward: relative p99 degradation against the
// learned baseline plus a queueing term.
func PerfPenalty(snap monitor.Snapshot) float64 {
	var p float64
	if snap.BaselineP99 > 0 && snap.Stats.Queries > 0 {
		rel := snap.Stats.P99Latency.Seconds()/snap.BaselineP99.Seconds() - 1
		if rel > 0 {
			p += rel
		}
	}
	p += snap.Stats.P99Queue.Seconds() / 30
	return p
}

// Expected returns the configuration KWO currently believes is in
// effect — after recovery from faults, harnesses assert it reconverges
// with the warehouse's actual configuration.
func (sm *SmartModel) Expected() cdw.Config { return sm.expected }

// enterDegraded drops the pending RL transition on entry to degraded
// mode: the reward that would span the outage would attribute
// fault-window spend and latency to the last normal-mode action.
func (sm *SmartModel) enterDegraded() { sm.haveLast = false }

// decideDegraded is the safe-mode decision tick, used while actuation
// or ingestion keeps failing (and while a previous actuation is still
// retrying): no smart-model actions, no self-correction reverts, no
// agent updates — constraint enforcement is the only permitted action
// class, because the customer's hard rules hold no matter how unwell
// the API surface is. External-change pause bookkeeping still runs so
// foreign alterations observed during an outage are not forgotten.
func (sm *SmartModel) decideDegraded(now time.Time, current cdw.Config, externalChange bool) cdw.Alteration {
	sm.windows++
	if sm.holdPause(externalChange, current) {
		return cdw.Alteration{}
	}
	return sm.enforcement(now, current)
}

// holdPause does the external-interference bookkeeping of §4.4: a
// foreign change pauses optimization, and undoing it resumes
// optimization automatically. It reports whether optimization stays
// paused this tick.
func (sm *SmartModel) holdPause(externalChange bool, current cdw.Config) bool {
	if externalChange && !sm.paused {
		sm.paused = true
		sm.preExternal = sm.expected
		sm.Pauses++
	}
	if !sm.paused {
		return false
	}
	if current != sm.preExternal {
		return true
	}
	sm.paused = false
	sm.expected = current
	return false
}

// enforcement returns the alteration an active enforcement window
// requires now (zero when none does). On the window's first demand it
// remembers the configuration to restore once every window closes.
func (sm *SmartModel) enforcement(now time.Time, current cdw.Config) cdw.Alteration {
	req := sm.settings.Constraints.Required(now, current)
	if req.IsZero() {
		return req
	}
	if sm.enforceRestore == nil {
		prev := current
		sm.enforceRestore = &prev
	}
	sm.Constrained++
	return req
}

// decide runs one Algorithm 1 decision tick. It returns the chosen
// action (NoOp when nothing should be done) and, when a constraint
// window demands it, the raw alteration that must be applied to bring
// the warehouse into compliance. creditsNow is the warehouse's
// cumulative billed credits, used to compute the reward for the
// previous action.
func (sm *SmartModel) decide(now time.Time, current cdw.Config, snap monitor.Snapshot,
	externalChange bool, creditsNow float64, opts Options) (action.Action, cdw.Alteration) {

	sm.windows++
	noop := action.Action{Kind: action.NoOp, Warehouse: sm.Warehouse}
	tuning := sm.settings.Slider.Tuning()

	// --- External interference handling (§4.4). ---
	if sm.holdPause(externalChange, current) {
		sm.recordReward(snap, creditsNow, current)
		return noop, cdw.Alteration{}
	}

	// --- Online reward for the previous action. ---
	sm.recordReward(snap, creditsNow, current)

	// --- Self-correction from real-time feedback. ---
	bd := sm.backoff.Tick(snap)
	if opts.DisableSelfCorrection {
		bd = policy.Decision{}
	}
	if bd.Revert != nil && bd.Revert.Effective(current) &&
		sm.settings.Constraints.Allows(now, current, *bd.Revert) {
		sm.Reverts++
		sm.noteAction(now)
		sm.lastAction = bd.Revert.Kind
		return *bd.Revert, cdw.Alteration{}
	}

	// --- Constraint enforcement windows. ---
	if req := sm.enforcement(now, current); !req.IsZero() {
		return noop, req
	}
	// When every enforcement window has closed, restore the sizing
	// fields the enforcement changed — otherwise a "9:00–9:30 must be
	// X-Large with 3 clusters" rule would leave the warehouse huge all
	// day.
	if sm.enforceRestore != nil && !sm.settings.Constraints.EnforcementActive(now) {
		prev := *sm.enforceRestore
		sm.enforceRestore = nil
		var alt cdw.Alteration
		if current.Size != prev.Size {
			alt.Size = cdw.SizeP(prev.Size)
		}
		if current.MinClusters != prev.MinClusters {
			alt.MinClusters = cdw.IntP(prev.MinClusters)
		}
		if current.MaxClusters != prev.MaxClusters {
			alt.MaxClusters = cdw.IntP(prev.MaxClusters)
		}
		// The restore is itself a configuration change and must honor
		// whatever prohibition rules are active right now — an enforcement
		// window ending inside a "no downsizing" window must not shrink
		// the warehouse. Drop the fields a rule forbids; the smart model
		// will walk the rest back once the prohibition lifts.
		if !sm.settings.Constraints.AllowsAlteration(now, current, alt) {
			if alt.Size != nil && !sm.settings.Constraints.AllowsAlteration(
				now, current, cdw.Alteration{Size: alt.Size}) {
				alt.Size = nil
			}
			if alt.MinClusters != nil || alt.MaxClusters != nil {
				clusters := cdw.Alteration{MinClusters: alt.MinClusters, MaxClusters: alt.MaxClusters}
				if !sm.settings.Constraints.AllowsAlteration(now, current, clusters) {
					alt.MinClusters, alt.MaxClusters = nil, nil
				}
			}
			if !sm.settings.Constraints.AllowsAlteration(now, current, alt) {
				alt = cdw.Alteration{}
			}
		}
		if !alt.IsZero() {
			sm.Constrained++
			return noop, alt
		}
	}

	// Warm-up: observe before acting.
	if sm.windows <= opts.WarmupWindows || sm.cost == nil {
		return noop, cdw.Alteration{}
	}

	// Rate limit.
	if now.Sub(sm.hourStart) >= time.Hour {
		sm.hourStart = now
		sm.actionsHour = 0
	}
	if sm.actionsHour >= opts.MaxActionsPerHour {
		return noop, cdw.Alteration{}
	}

	// --- Rank candidate actions. ---
	state := rl.Featurize(snap, current)
	ranked := sm.agent.Rank(state)
	// ε-exploration: occasionally promote a random candidate; it still
	// passes every safety filter below.
	if sm.rng.Float64() < sm.agent.Epsilon() {
		i := sm.rng.Intn(len(ranked))
		ranked[0], ranked[i] = ranked[i], ranked[0]
	}

	perfPressure := snap.Stats.P99Queue > 2*time.Second ||
		(snap.BaselineP99 > 0 && snap.Stats.P99Latency > 2*snap.BaselineP99)
	if perfPressure {
		sm.pressureStreak++
	} else {
		sm.pressureStreak = 0
	}
	if snap.Stats.P99Queue > 2*time.Second {
		sm.queueStreak++
	} else {
		sm.queueStreak = 0
	}

	// Confidence ramp: how many configuration steps away from the
	// customer's original configuration the model may currently sit.
	allowedSteps := 1 << 20
	if opts.RampStepHours > 0 && !sm.attachedAt.IsZero() {
		allowedSteps = 1 + int(now.Sub(sm.attachedAt).Hours()/opts.RampStepHours)
	}

	ws := snap.Stats
	for _, kind := range ranked {
		if kind == action.NoOp {
			return noop, cdw.Alteration{}
		}
		if !sm.kindSupported(kind) {
			continue
		}
		cand := action.Action{Kind: kind, Warehouse: sm.Warehouse}
		if !cand.Effective(current) {
			continue
		}
		if !sm.settings.Constraints.Allows(now, current, cand) {
			continue
		}
		imp := sm.cost.PredictImpact(ws, current, cand)
		improves := imp.LatencyFactor < 1 || (imp.QueueRisk == 0 && imp.LatencyFactor == 1 &&
			(kind == action.ClustersUp || kind == action.SuspendLonger || kind == action.SizeUp))
		// Provisioning is bounded by the customer's own sizing plus one
		// step of headroom: performance restoration means getting back
		// to (or slightly above) the original, not unbounded growth.
		if kind == action.SizeUp && cand.Target(current).Size > sm.orig.Size.Up() {
			continue
		}
		if kind == action.ClustersUp && cand.Target(current).MaxClusters > sm.orig.MaxClusters+1 {
			continue
		}
		if kind == action.SuspendLonger && sm.orig.AutoSuspend > 0 &&
			cand.Target(current).AutoSuspend > 2*sm.orig.AutoSuspend {
			continue
		}
		saves := -imp.DeltaCreditsPerHour >= tuning.MinSavingsToAct
		// The latency budget is CUMULATIVE against the customer's
		// original configuration (C4: never degrade performance beyond
		// what the slider allows, no matter how many small steps got
		// there), and it is relative OR absolute: a 1.7x factor on a
		// 0.5s dashboard query is fine under the absolute budget, while
		// the same factor on a 10-minute ETL job is not.
		next := cand.Target(current)
		cumFactor := sm.cost.LatencyFactorVsBaseline(next, sm.orig)
		// Judge the absolute budget against the workload's typical
		// execution time, not just the current (possibly quiet) window
		// — otherwise a night of trivial queries would justify sizes
		// the daytime workload cannot live with.
		baseExec := ws.AvgExec.Seconds()
		if sm.execEWMA.Value() > baseExec {
			baseExec = sm.execEWMA.Value()
		}
		execAtOrig := sm.cost.Latency.ScaleExec(0, baseExec, current.Size, sm.orig.Size)
		addedSecs := (cumFactor - 1) * execAtOrig
		latencyOK := cumFactor <= tuning.MaxLatencyFactor ||
			(addedSecs >= 0 && addedSecs <= tuning.MaxAddedLatency)
		withinBudget := latencyOK && imp.QueueRisk <= tuning.MaxQueueRisk
		// C4: performance-restoring actions are acceptable under live
		// performance pressure, regardless of cost — but provisioning
		// BEYOND the customer's original configuration requires
		// sustained, objective queueing. Latency variance alone never
		// ratchets spend past what the customer had (C1: nothing to
		// lose).
		if improves && perfPressure {
			// One noisy window is not pressure: restoring capacity costs
			// real money, so it takes two consecutive pressured ticks.
			if sm.pressureStreak < 2 {
				continue
			}
			if aboveOriginal(next, sm.orig) && sm.queueStreak < 2 {
				continue
			}
			sm.noteAction(now)
			sm.lastAction = kind
			return cand, cdw.Alteration{}
		}
		if bd.Conservative || snap.Degraded {
			continue
		}
		if saves && withinBudget {
			// Confidence ramp: early in the deployment only small
			// deviations from the original configuration are allowed.
			if configDistance(next, sm.orig) > allowedSteps {
				continue
			}
			sm.noteAction(now)
			sm.lastAction = kind
			return cand, cdw.Alteration{}
		}
	}
	return noop, cdw.Alteration{}
}

// aboveOriginal reports whether cfg provisions more than the original
// in any dimension.
func aboveOriginal(cfg, orig cdw.Config) bool {
	return cfg.Size > orig.Size || cfg.MaxClusters > orig.MaxClusters ||
		cfg.AutoSuspend > orig.AutoSuspend
}

// configDistance counts configuration steps between two configs: size
// steps, max-cluster steps, and auto-suspend halvings/doublings.
func configDistance(a, b cdw.Config) int {
	d := 0
	if a.Size > b.Size {
		d += int(a.Size - b.Size)
	} else {
		d += int(b.Size - a.Size)
	}
	if a.MaxClusters > b.MaxClusters {
		d += a.MaxClusters - b.MaxClusters
	} else {
		d += b.MaxClusters - a.MaxClusters
	}
	lo, hi := a.AutoSuspend, b.AutoSuspend
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo > 0 {
		for lo < hi {
			lo *= 2
			d++
		}
	}
	if a.Policy != b.Policy {
		d++
	}
	return d
}

// recordReward feeds the previous transition into the agent.
func (sm *SmartModel) recordReward(snap monitor.Snapshot, creditsNow float64, current cdw.Config) {
	state := rl.Featurize(snap, current)
	if snap.Stats.Queries >= 5 {
		sm.execEWMA.Alpha = 0.05
		sm.execEWMA.Add(snap.Stats.AvgExec.Seconds())
	}
	if sm.haveLast {
		spent := creditsNow - sm.lastCredits
		if spent < 0 {
			spent = 0
		}
		lambda := sm.settings.Slider.Tuning().PerfPenalty
		r := rl.Reward(spent, PerfPenalty(snap), lambda)
		sm.agent.Observe(ml.Transition{
			State:     sm.lastState,
			Action:    int(sm.lastAction),
			Reward:    r,
			NextState: state,
		})
	}
	sm.lastState = state
	sm.lastAction = action.NoOp
	sm.haveLast = true
	sm.lastCredits = creditsNow
}

func (sm *SmartModel) noteAction(now time.Time) {
	if sm.hourStart.IsZero() {
		sm.hourStart = now
	}
	sm.actionsHour++
}

// markApplied lets the engine confirm an action reached the warehouse,
// updating the expected config and the backoff guard.
func (sm *SmartModel) markApplied(a action.Action, newCfg cdw.Config) {
	sm.expected = newCfg
	sm.Applied++
	sm.backoff.Record(a)
}
