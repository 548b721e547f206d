package rl

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"kwo/internal/action"
	"kwo/internal/cdw"
	"kwo/internal/ml"
	"kwo/internal/monitor"
	"kwo/internal/simclock"
	"kwo/internal/telemetry"
)

func snapAt(t time.Time, qph float64, degraded bool) monitor.Snapshot {
	return monitor.Snapshot{
		At: t,
		Stats: telemetry.WindowStats{
			QPH:        qph,
			AvgExec:    5 * time.Second,
			P99Latency: 8 * time.Second,
			P99Queue:   time.Second,
			Queries:    int(qph / 6),
			ColdReads:  2,
		},
		Degraded: degraded,
	}
}

func cfg() cdw.Config {
	return cdw.Config{Name: "W", Size: cdw.SizeMedium, MinClusters: 1,
		MaxClusters: 3, AutoSuspend: 5 * time.Minute, AutoResume: true}
}

func TestFeaturizeShapeAndBounds(t *testing.T) {
	s := Featurize(snapAt(simclock.Epoch.Add(14*time.Hour), 500, true), cfg())
	if len(s) != StateDim {
		t.Fatalf("state dim = %d, want %d", len(s), StateDim)
	}
	for i, v := range s {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("feature %d is %v", i, v)
		}
		if v < -1.5 || v > 3 {
			t.Fatalf("feature %d = %v outside sane bounds", i, v)
		}
	}
	if s[12] != 1 {
		t.Fatal("degraded flag not set")
	}
	// Weekday flag: Epoch is Monday.
	if s[10] != 1 {
		t.Fatal("weekday flag not set on Monday")
	}
	sat := Featurize(snapAt(simclock.Epoch.Add(5*24*time.Hour), 500, false), cfg())
	if sat[10] != 0 {
		t.Fatal("weekday flag set on Saturday")
	}
}

func TestFeaturizeDistinguishesConfigs(t *testing.T) {
	snap := snapAt(simclock.Epoch, 100, false)
	a := Featurize(snap, cfg())
	big := cfg()
	big.Size = cdw.Size6XLarge
	b := Featurize(snap, big)
	if a[5] >= b[5] {
		t.Fatal("size feature not increasing with size")
	}
}

func TestReward(t *testing.T) {
	if Reward(10, 0, 5) != -10 {
		t.Fatal("pure cost reward wrong")
	}
	if Reward(0, 2, 5) != -10 {
		t.Fatal("pure perf reward wrong")
	}
	if Reward(1, 1, 0) != -1 {
		t.Fatal("lambda=0 should ignore perf")
	}
	// Higher lambda punishes perf harder.
	if Reward(1, 1, 10) >= Reward(1, 1, 1) {
		t.Fatal("lambda not monotone")
	}
}

func TestAgentRankComplete(t *testing.T) {
	a := NewAgent(rand.New(rand.NewSource(1)), DefaultConfig())
	state := Featurize(snapAt(simclock.Epoch, 100, false), cfg())
	ranked := a.Rank(state)
	if len(ranked) != action.NumKinds {
		t.Fatalf("ranked %d actions, want %d", len(ranked), action.NumKinds)
	}
	seen := map[action.Kind]bool{}
	for _, k := range ranked {
		if seen[k] {
			t.Fatalf("duplicate action %v in ranking", k)
		}
		seen[k] = true
	}
	// Ranking is consistent with Q-values.
	qs := a.Q(state)
	for i := 1; i < len(ranked); i++ {
		if qs[ranked[i-1]] < qs[ranked[i]] {
			t.Fatal("ranking not descending in Q")
		}
	}
}

func TestEpsilonDecayAndFloor(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Epsilon = 0.5
	cfg.EpsilonMin = 0.1
	cfg.EpsilonDecay = 0.5
	a := NewAgent(rand.New(rand.NewSource(2)), cfg)
	state := make([]float64, StateDim)
	for i := 0; i < 10; i++ {
		a.Act(state)
	}
	if a.Epsilon() != 0.1 {
		t.Fatalf("epsilon = %v, want floor 0.1", a.Epsilon())
	}
	a.SetEpsilonFloor(0.3)
	if a.Epsilon() != 0.3 {
		t.Fatalf("raising floor did not lift epsilon: %v", a.Epsilon())
	}
}

// bandit builds transitions for a 2-state bandit where the optimal
// action differs by state, then checks the agent learns both.
func TestAgentLearnsContextualBandit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := DefaultConfig()
	c.Epsilon = 0 // pure offline learning
	c.LearningRate = 1e-2
	a := NewAgent(rng, c)

	stateA := make([]float64, StateDim) // "idle": size-down pays
	stateB := make([]float64, StateDim) // "busy": size-up pays
	stateA[0] = 0.1
	stateB[0] = 0.9
	stateB[4] = 1.0

	var ts []ml.Transition
	for i := 0; i < 400; i++ {
		for k := 0; k < action.NumKinds; k++ {
			rA, rB := -0.5, -0.5
			if action.Kind(k) == action.SizeDown {
				rA, rB = 1.0, -2.0
			}
			if action.Kind(k) == action.SizeUp {
				rA, rB = -2.0, 1.0
			}
			ts = append(ts,
				ml.Transition{State: stateA, Action: k, Reward: rA, NextState: stateA, Terminal: true},
				ml.Transition{State: stateB, Action: k, Reward: rB, NextState: stateB, Terminal: true},
			)
		}
	}
	a.Pretrain(ts, 3000)

	if got := a.Rank(stateA)[0]; got != action.SizeDown {
		t.Fatalf("idle-state best action = %v, want size-down (Q=%v)", got, a.Q(stateA))
	}
	if got := a.Rank(stateB)[0]; got != action.SizeUp {
		t.Fatalf("busy-state best action = %v, want size-up (Q=%v)", got, a.Q(stateB))
	}
}

func TestAgentBootstrapsFutureReward(t *testing.T) {
	// Two-step chain: action 1 in s0 leads to s1 with zero immediate
	// reward; s1's best action pays +10. With gamma=0.9 the Q-value of
	// (s0, action 1) should approach 9 > immediate +5 of action 0.
	rng := rand.New(rand.NewSource(4))
	c := DefaultConfig()
	c.Gamma = 0.9
	c.LearningRate = 1e-2
	c.SyncEvery = 50
	a := NewAgent(rng, c)
	s0 := make([]float64, StateDim)
	s1 := make([]float64, StateDim)
	s1[0] = 1
	var ts []ml.Transition
	for i := 0; i < 300; i++ {
		ts = append(ts,
			ml.Transition{State: s0, Action: 0, Reward: 5, NextState: s0, Terminal: true},
			ml.Transition{State: s0, Action: 1, Reward: 0, NextState: s1, Terminal: false},
			ml.Transition{State: s1, Action: 2, Reward: 10, NextState: s1, Terminal: true},
		)
		// Other actions in s1 are poor, so max_a Q(s1) ≈ 10.
		for k := 0; k < action.NumKinds; k++ {
			if k != 2 {
				ts = append(ts, ml.Transition{State: s1, Action: k, Reward: -1, NextState: s1, Terminal: true})
			}
		}
	}
	a.Pretrain(ts, 6000)
	q0 := a.Q(s0)
	if q0[1] <= q0[0] {
		t.Fatalf("agent did not bootstrap future reward: Q(s0) = %v", q0)
	}
}

func TestObserveTrainsOnline(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := NewAgent(rng, DefaultConfig())
	s := make([]float64, StateDim)
	for i := 0; i < 50; i++ {
		a.Observe(ml.Transition{State: s, Action: 0, Reward: 1, NextState: s, Terminal: true})
	}
	if a.BufferLen() != 50 {
		t.Fatalf("buffer = %d", a.BufferLen())
	}
	if a.Steps() != 50 {
		t.Fatalf("steps = %d", a.Steps())
	}
	q := a.Q(s)[0]
	if q < 0.2 {
		t.Fatalf("online training ineffective: Q = %v, want → 1", q)
	}
}

func TestAgentDeterministicGivenSeed(t *testing.T) {
	build := func() []float64 {
		rng := rand.New(rand.NewSource(9))
		a := NewAgent(rng, DefaultConfig())
		s := make([]float64, StateDim)
		for i := 0; i < 100; i++ {
			a.Observe(ml.Transition{State: s, Action: i % action.NumKinds,
				Reward: float64(i % 3), NextState: s, Terminal: i%2 == 0})
		}
		return a.Q(s)
	}
	q1, q2 := build(), build()
	for i := range q1 {
		if q1[i] != q2[i] {
			t.Fatal("agent not deterministic for fixed seed")
		}
	}
}
