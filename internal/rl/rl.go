// Package rl implements the deep reinforcement learning core of KWO's
// data learning (§6): a DQN agent whose states are featurized telemetry
// windows, whose actions are the warehouse optimization actions of
// internal/action, and whose reward balances credits spent against
// performance degradation with a slider-controlled weight λ.
//
// The agent supports the paper's two training regimes: offline
// pre-training from large historical telemetry ("our DRL model benefits
// from having access to large historical telemetry data") and online
// updates from the live feedback loop of Algorithm 1.
package rl

import (
	"math"
	"math/rand"
	"time"

	"kwo/internal/action"
	"kwo/internal/cdw"
	"kwo/internal/ml"
	"kwo/internal/monitor"
)

// StateDim is the length of the featurized state vector.
const StateDim = 13

// Featurize encodes a monitor snapshot plus the current warehouse
// configuration as the agent's state vector. All features are bounded
// or log-compressed so the network never sees wild magnitudes.
func Featurize(snap monitor.Snapshot, cfg cdw.Config) []float64 {
	ws := snap.Stats
	hour := float64(snap.At.Hour()) + float64(snap.At.Minute())/60
	weekday := 0.0
	switch snap.At.Weekday() {
	case time.Saturday, time.Sunday:
	default:
		weekday = 1
	}
	coldFrac := 0.0
	if ws.Queries > 0 {
		coldFrac = float64(ws.ColdReads) / float64(ws.Queries)
	}
	degraded := 0.0
	if snap.Degraded {
		degraded = 1
	}
	rho := ws.QPH / 3600 * ws.AvgExec.Seconds() // offered load
	return []float64{
		math.Log1p(ws.QPH) / 10,
		math.Log1p(ws.AvgExec.Seconds()) / 10,
		math.Log1p(ws.P99Latency.Seconds()) / 10,
		math.Log1p(ws.P99Queue.Seconds()) / 10,
		ml.Clamp(rho/16, 0, 1),
		float64(cfg.Size) / float64(cdw.MaxSize),
		ml.Clamp(float64(cfg.MaxClusters)/10, 0, 1),
		math.Log1p(cfg.AutoSuspend.Seconds()) / 10,
		math.Sin(2 * math.Pi * hour / 24),
		math.Cos(2 * math.Pi * hour / 24),
		weekday,
		coldFrac,
		degraded,
	}
}

// Reward computes the per-window reward: the negative of credits spent
// plus λ times the performance penalty. perfPenalty should already
// aggregate latency degradation and queueing (see core.PerfPenalty).
func Reward(creditsSpent, perfPenalty, lambda float64) float64 {
	return -creditsSpent - lambda*perfPenalty
}

// Config tunes the agent.
type Config struct {
	Gamma        float64 // discount factor
	Epsilon      float64 // initial exploration rate
	EpsilonMin   float64 // exploration floor
	EpsilonDecay float64 // multiplicative decay per online step
	LearningRate float64
	BatchSize    int
	BufferSize   int
	SyncEvery    int // steps between target-network syncs
	Hidden       int // width of the two hidden layers
}

// DefaultConfig returns the production defaults.
func DefaultConfig() Config {
	return Config{
		Gamma:        0.9,
		Epsilon:      0.3,
		EpsilonMin:   0.03,
		EpsilonDecay: 0.999,
		LearningRate: 5e-3,
		BatchSize:    32,
		BufferSize:   20000,
		SyncEvery:    200,
		Hidden:       32,
	}
}

// Agent is a DQN over the action.Kind space.
//
// An Agent is not safe for concurrent use, not even by concurrent
// reads such as Q and Rank: it trains and evaluates in scratch buffers
// it owns and reuses. Each agent is driven by its engine's scheduler.
type Agent struct {
	cfg    Config
	q      *ml.MLP
	target *ml.MLP
	buf    *ml.ReplayBuffer
	rng    *rand.Rand
	steps  int

	// Training scratch reused by every step: the minibatch, and the
	// per-sample targets and mask, which are set at the taken action
	// only for the duration of its TrainStep.
	batch   []ml.Transition
	targets []float64
	mask    []bool
}

// NewAgent builds an agent with freshly initialized networks.
func NewAgent(rng *rand.Rand, cfg Config) *Agent {
	if cfg.Hidden <= 0 {
		cfg.Hidden = 32
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.BufferSize <= 0 {
		cfg.BufferSize = 10000
	}
	if cfg.SyncEvery <= 0 {
		cfg.SyncEvery = 200
	}
	if cfg.Gamma <= 0 || cfg.Gamma >= 1 {
		cfg.Gamma = 0.9
	}
	q := ml.NewMLP(rng, StateDim, cfg.Hidden, cfg.Hidden, action.NumKinds)
	q.LearningRate = cfg.LearningRate
	q.GradClip = 1.0
	return &Agent{
		cfg:     cfg,
		q:       q,
		target:  q.Clone(),
		buf:     ml.NewReplayBuffer(cfg.BufferSize),
		rng:     rng,
		batch:   make([]ml.Transition, 0, cfg.BatchSize),
		targets: make([]float64, action.NumKinds),
		mask:    make([]bool, action.NumKinds),
	}
}

// Q returns the Q-values for every action in the given state, as a
// slice the caller owns.
func (a *Agent) Q(state []float64) []float64 {
	return append([]float64(nil), a.q.Forward(state)...)
}

// Rank returns all action kinds sorted by descending Q-value — the
// smart model walks this list and applies the best action that passes
// the cost model and constraint filters.
func (a *Agent) Rank(state []float64) []action.Kind {
	qs := a.q.Forward(state)
	kinds := action.All()
	// Insertion sort by Q desc; the action space is tiny.
	for i := 1; i < len(kinds); i++ {
		for j := i; j > 0 && qs[kinds[j]] > qs[kinds[j-1]]; j-- {
			kinds[j], kinds[j-1] = kinds[j-1], kinds[j]
		}
	}
	return kinds
}

// Act picks an action ε-greedily and decays ε.
func (a *Agent) Act(state []float64) action.Kind {
	eps := a.cfg.Epsilon
	if a.rng.Float64() < eps {
		a.decayEpsilon()
		return action.Kind(a.rng.Intn(action.NumKinds))
	}
	a.decayEpsilon()
	return a.Rank(state)[0]
}

func (a *Agent) decayEpsilon() {
	a.cfg.Epsilon *= a.cfg.EpsilonDecay
	if a.cfg.Epsilon < a.cfg.EpsilonMin {
		a.cfg.Epsilon = a.cfg.EpsilonMin
	}
}

// Epsilon returns the current exploration rate.
func (a *Agent) Epsilon() float64 { return a.cfg.Epsilon }

// SetEpsilonFloor adjusts the exploration floor (the slider's Explore
// knob) without retraining — §4.3's "re-calibrate its decisions
// automatically" on slider moves.
func (a *Agent) SetEpsilonFloor(min float64) {
	a.cfg.EpsilonMin = min
	if a.cfg.Epsilon < min {
		a.cfg.Epsilon = min
	}
}

// Observe stores a transition and performs one training step.
func (a *Agent) Observe(tr ml.Transition) float64 {
	a.buf.Add(tr)
	return a.trainStep()
}

// trainStep samples a minibatch and applies one DQN update, returning
// the mean TD loss.
func (a *Agent) trainStep() float64 {
	a.batch = a.buf.Sample(a.batch, a.rng, a.cfg.BatchSize)
	if len(a.batch) == 0 {
		return 0
	}
	var total float64
	for _, tr := range a.batch {
		target := tr.Reward
		if !tr.Terminal {
			nq := a.target.Forward(tr.NextState)
			boot := nq[0]
			for _, v := range nq[1:] {
				if v > boot {
					boot = v
				}
			}
			target += a.cfg.Gamma * boot
		}
		a.targets[tr.Action], a.mask[tr.Action] = target, true
		total += a.q.TrainStep(tr.State, a.targets, a.mask)
		a.targets[tr.Action], a.mask[tr.Action] = 0, false
	}
	a.steps++
	if a.steps%a.cfg.SyncEvery == 0 {
		a.target.CopyFrom(a.q)
	}
	return total / float64(len(a.batch))
}

// Pretrain fills the replay buffer with historical transitions and
// trains for the given number of steps — the offline phase that lets
// the agent act sensibly from its first live decision.
func (a *Agent) Pretrain(transitions []ml.Transition, steps int) {
	for _, tr := range transitions {
		a.buf.Add(tr)
	}
	for i := 0; i < steps; i++ {
		a.trainStep()
	}
}

// BufferLen exposes the replay buffer size (for tests and dashboards).
func (a *Agent) BufferLen() int { return a.buf.Len() }

// Steps returns the number of gradient steps taken.
func (a *Agent) Steps() int { return a.steps }
