package ml

import "math/rand"

// Transition is one reinforcement-learning experience tuple.
type Transition struct {
	State     []float64
	Action    int
	Reward    float64
	NextState []float64
	Terminal  bool
}

// ReplayBuffer is a fixed-capacity ring buffer of transitions with
// uniform random sampling — standard DQN experience replay. The paper
// notes KWO's DRL "benefits from having access to large historical
// telemetry data"; offline pre-training fills this buffer from history
// before any live action is taken.
type ReplayBuffer struct {
	capacity int
	buf      []Transition
	next     int
	full     bool
}

// NewReplayBuffer allocates a buffer holding up to capacity transitions.
func NewReplayBuffer(capacity int) *ReplayBuffer {
	if capacity <= 0 {
		capacity = 1
	}
	return &ReplayBuffer{capacity: capacity, buf: make([]Transition, 0, capacity)}
}

// Add appends a transition, evicting the oldest when full.
func (b *ReplayBuffer) Add(t Transition) {
	if len(b.buf) < b.capacity {
		b.buf = append(b.buf, t)
		return
	}
	b.buf[b.next] = t
	b.next = (b.next + 1) % b.capacity
	b.full = true
}

// Len returns the number of stored transitions.
func (b *ReplayBuffer) Len() int { return len(b.buf) }

// Sample draws n transitions uniformly with replacement and appends
// them to dst[:0], so a caller that passes its previous minibatch back
// in samples without allocating. It returns the whole buffer, in
// order, if the buffer holds n or fewer.
func (b *ReplayBuffer) Sample(dst []Transition, rng *rand.Rand, n int) []Transition {
	dst = dst[:0]
	if len(b.buf) <= n {
		return append(dst, b.buf...)
	}
	for i := 0; i < n; i++ {
		dst = append(dst, b.buf[rng.Intn(len(b.buf))])
	}
	return dst
}
