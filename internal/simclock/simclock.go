// Package simclock provides a deterministic discrete-event simulation
// engine: a virtual clock, an ordered event queue, and seeded random
// number streams.
//
// All of the repository's simulated components (the cloud data warehouse,
// workload generators, the KWO engine itself) are driven by a single
// *Scheduler. Time never advances on its own; it jumps from event to
// event, which makes multi-day simulations run in milliseconds and makes
// every run exactly reproducible for a given seed.
package simclock

import (
	"container/heap"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"
)

// Epoch is the default simulation start: Monday 2023-01-02 00:00 UTC.
// Starting on a Monday makes day-of-week constraint rules easy to reason
// about in tests and experiments.
var Epoch = time.Date(2023, 1, 2, 0, 0, 0, 0, time.UTC)

// Event is a scheduled callback. Events with equal times fire in the
// order they were scheduled.
type Event struct {
	At   time.Time
	Name string // for tracing and tests
	Fn   func()

	seq   uint64
	index int
}

// eventHeap orders events by (At, seq).
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].At.Equal(h[j].At) {
		return h[i].seq < h[j].seq
	}
	return h[i].At.Before(h[j].At)
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Scheduler is a discrete-event simulator. It is not safe for concurrent
// use; the simulation is single-threaded by design so that runs are
// deterministic.
type Scheduler struct {
	now   time.Time
	queue eventHeap
	seq   uint64
	seed  int64
	steps uint64
}

// NewScheduler returns a scheduler whose clock starts at Epoch.
func NewScheduler(seed int64) *Scheduler {
	return NewSchedulerAt(Epoch, seed)
}

// NewSchedulerAt returns a scheduler whose clock starts at the given time.
func NewSchedulerAt(start time.Time, seed int64) *Scheduler {
	return &Scheduler{now: start, seed: seed}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Time { return s.now }

// Steps returns the number of events executed so far.
func (s *Scheduler) Steps() uint64 { return s.steps }

// Seq returns the number of events ever scheduled — the tie-break
// counter behind same-time ordering. Together with Steps it pins a
// scheduler's position exactly; checkpoint verification compares both.
func (s *Scheduler) Seq() uint64 { return s.seq }

// Schedule enqueues fn to run at time at. Scheduling in the past is an
// error in the simulation logic, so it panics rather than silently
// reordering history.
func (s *Scheduler) Schedule(at time.Time, name string, fn func()) *Event {
	if at.Before(s.now) {
		panic(fmt.Sprintf("simclock: schedule %q at %v before now %v", name, at, s.now))
	}
	s.seq++
	e := &Event{At: at, Name: name, Fn: fn, seq: s.seq}
	heap.Push(&s.queue, e)
	return e
}

// After enqueues fn to run after delay d.
func (s *Scheduler) After(d time.Duration, name string, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return s.Schedule(s.now.Add(d), name, fn)
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op and returns false.
func (s *Scheduler) Cancel(e *Event) bool {
	if e == nil || e.index < 0 || e.index >= len(s.queue) || s.queue[e.index] != e {
		return false
	}
	heap.Remove(&s.queue, e.index)
	return true
}

// Pending returns the number of queued events.
func (s *Scheduler) Pending() int { return len(s.queue) }

// NextEventTime returns the time of the earliest pending event. The
// second result is false when the queue is empty. Harnesses use it to
// step the simulation event by event up to a horizon.
func (s *Scheduler) NextEventTime() (time.Time, bool) {
	if len(s.queue) == 0 {
		return time.Time{}, false
	}
	return s.queue[0].At, true
}

// Step executes the next event, advancing the clock to its time.
// It returns false when the queue is empty.
func (s *Scheduler) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	e := heap.Pop(&s.queue).(*Event)
	s.now = e.At
	s.steps++
	e.Fn()
	return true
}

// RunUntil executes events until the clock would pass t, then sets the
// clock to exactly t. Events scheduled at exactly t are executed.
func (s *Scheduler) RunUntil(t time.Time) {
	for len(s.queue) > 0 && !s.queue[0].At.After(t) {
		s.Step()
	}
	if t.After(s.now) {
		s.now = t
	}
}

// RunFor advances the simulation by d.
func (s *Scheduler) RunFor(d time.Duration) { s.RunUntil(s.now.Add(d)) }

// Rand returns an independent deterministic random stream derived from
// the scheduler seed and a name. Two streams with different names are
// decorrelated; the same name always yields the same stream.
func (s *Scheduler) Rand(name string) *rand.Rand {
	return rand.New(rand.NewSource(s.SeedFor(name)))
}

// SeedFor returns the derived seed Rand(name) builds its source from —
// callers that need to wrap the source (e.g. to count draws for a
// checkpoint) get the identical stream by seeding their own.
func (s *Scheduler) SeedFor(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return s.seed ^ int64(h.Sum64())
}
