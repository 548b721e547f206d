package rl

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"kwo/internal/action"
	"kwo/internal/ml"
)

// pinStates returns 64 fixed states spread over the feature range.
func pinStates() [][]float64 {
	rng := rand.New(rand.NewSource(22))
	states := make([][]float64, 64)
	for i := range states {
		s := make([]float64, StateDim)
		for j := range s {
			s[j] = rng.Float64()*2 - 1
		}
		states[i] = s
	}
	return states
}

// pinnedQHash drives one agent through every branch of the learning
// loop and hashes the bits of what it learned: a pretrain pass over a
// buffer smaller than the batch (Sample returns the whole buffer in
// order), a full pass mixing terminal and bootstrapped transitions
// across several target syncs, then online Observe steps interleaved
// with Act. The hash covers the Q-values over 64 fixed states, the
// online losses and the chosen actions, so any change to an
// accumulation order, the RNG draw order or the target sync shows.
func pinnedQHash(t *testing.T) uint64 {
	t.Helper()
	c := DefaultConfig()
	c.SyncEvery = 50
	a := NewAgent(rand.New(rand.NewSource(21)), c)
	states := pinStates()
	tr := func(i int) ml.Transition {
		return ml.Transition{
			State:     states[i%len(states)],
			Action:    i % action.NumKinds,
			Reward:    float64(i%5) - 2.5,
			NextState: states[(i*7+3)%len(states)],
			Terminal:  i%3 == 0,
		}
	}
	var small []ml.Transition
	for i := 0; i < c.BatchSize/2; i++ {
		small = append(small, tr(i))
	}
	a.Pretrain(small, 20)
	var full []ml.Transition
	for i := len(small); i < 400; i++ {
		full = append(full, tr(i))
	}
	a.Pretrain(full, 300)

	h := fnv.New64a()
	put := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for i := 0; i < 40; i++ {
		put(float64(a.Act(states[i])))
		put(a.Observe(tr(1000 + i)))
	}
	if a.Steps() != 360 {
		t.Fatalf("steps = %d, want 360", a.Steps())
	}
	for _, s := range states {
		for _, v := range a.Q(s) {
			put(v)
		}
	}
	return h.Sum64()
}

// TestDQNTrainingPinned pins the learning loop bit for bit: the hash
// was recorded before the loop was made allocation-free, and any
// rewrite of the network or the agent must reproduce it exactly. It was
// recorded on amd64 at the default GOAMD64 level, where Go does not
// fuse multiply-adds; a platform that fuses them, such as arm64,
// computes other bits, as the golden traces would.
func TestDQNTrainingPinned(t *testing.T) {
	const want = 0x2b9b47fbd1356147
	if got := pinnedQHash(t); got != want {
		t.Errorf("Q hash = %#x, want %#x", got, uint64(want))
	}
}

// TestQReturnsCallerOwnedCopy guards the scratch-aliasing hazard: the
// network evaluates into buffers it reuses, so Q must hand out a copy
// that neither a caller's writes nor a later evaluation can disturb.
func TestQReturnsCallerOwnedCopy(t *testing.T) {
	a := NewAgent(rand.New(rand.NewSource(1)), DefaultConfig())
	states := pinStates()
	q := a.Q(states[0])
	want := append([]float64(nil), q...)
	for i := range q {
		q[i] = math.NaN()
	}
	again := a.Q(states[0])
	for i := range want {
		if again[i] != want[i] {
			t.Fatalf("mutating a returned slice changed the next Q: %v, want %v", again, want)
		}
	}
	a.Q(states[1])
	a.Rank(states[2])
	for i := range want {
		if again[i] != want[i] {
			t.Fatalf("a later evaluation overwrote a returned Q: %v, want %v", again, want)
		}
	}
}

// TestAgentAllocsZero is the learning loop's allocation regression:
// once the buffer holds a full batch and the first step has built the
// scratch, offline passes and online observations allocate nothing,
// and ranking allocates only the ranking it returns.
func TestAgentAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	states := pinStates()
	c := DefaultConfig()
	a := NewAgent(rand.New(rand.NewSource(3)), c)
	var history []ml.Transition
	for i := 0; i < 4*c.BatchSize; i++ {
		history = append(history, ml.Transition{State: states[i%64], Action: i % action.NumKinds,
			Reward: 1, NextState: states[(i+1)%64], Terminal: i%4 == 0})
	}
	a.Pretrain(history, 1)
	tr := history[1]
	for _, op := range []struct {
		name string
		f    func()
		want float64
	}{
		{"Pretrain(nil, 10)", func() { a.Pretrain(nil, 10) }, 0},
		{"Observe", func() { a.Observe(tr) }, 0},
		{"Rank", func() { a.Rank(states[0]) }, 1},
	} {
		if n := testing.AllocsPerRun(20, op.f); n != op.want {
			t.Errorf("%s: %v allocs/op, want %v", op.name, n, op.want)
		}
	}
}
