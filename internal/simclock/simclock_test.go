package simclock

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	s := NewScheduler(1)
	var got []string
	s.Schedule(Epoch.Add(2*time.Second), "b", func() { got = append(got, "b") })
	s.Schedule(Epoch.Add(1*time.Second), "a", func() { got = append(got, "a") })
	s.Schedule(Epoch.Add(3*time.Second), "c", func() { got = append(got, "c") })
	s.RunUntil(Epoch.Add(10 * time.Second))
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if !s.Now().Equal(Epoch.Add(10 * time.Second)) {
		t.Fatalf("clock = %v, want %v", s.Now(), Epoch.Add(10*time.Second))
	}
}

func TestFIFOTieBreak(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	at := Epoch.Add(time.Second)
	for i := 0; i < 20; i++ {
		i := i
		s.Schedule(at, "tie", func() { got = append(got, i) })
	}
	s.RunFor(2 * time.Second)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", got)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := NewScheduler(1)
	s.RunUntil(Epoch.Add(time.Hour))
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.Schedule(Epoch, "past", func() {})
}

func TestCancel(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	e := s.After(time.Second, "x", func() { fired = true })
	if !s.Cancel(e) {
		t.Fatal("first cancel returned false")
	}
	if s.Cancel(e) {
		t.Fatal("second cancel returned true")
	}
	s.RunFor(time.Minute)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelNil(t *testing.T) {
	s := NewScheduler(1)
	if s.Cancel(nil) {
		t.Fatal("cancel(nil) returned true")
	}
}

func TestEventsScheduledDuringStepRun(t *testing.T) {
	s := NewScheduler(1)
	count := 0
	var chain func()
	chain = func() {
		count++
		if count < 5 {
			s.After(time.Second, "chain", chain)
		}
	}
	s.After(time.Second, "chain", chain)
	s.RunFor(time.Minute)
	if count != 5 {
		t.Fatalf("chain executed %d times, want 5", count)
	}
}

func TestRunUntilExecutesBoundary(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	at := Epoch.Add(time.Second)
	s.Schedule(at, "boundary", func() { fired = true })
	s.RunUntil(at)
	if !fired {
		t.Fatal("event at exact boundary time did not fire")
	}
}

func TestRandDeterministicAndDecorrelated(t *testing.T) {
	a := NewScheduler(42).Rand("alpha")
	b := NewScheduler(42).Rand("alpha")
	c := NewScheduler(42).Rand("beta")
	same, diff := true, false
	for i := 0; i < 32; i++ {
		x, y, z := a.Int63(), b.Int63(), c.Int63()
		if x != y {
			same = false
		}
		if x != z {
			diff = true
		}
	}
	if !same {
		t.Fatal("same seed+name produced different streams")
	}
	if !diff {
		t.Fatal("different names produced identical streams")
	}
}

// Property: for any set of non-negative delays, events fire in sorted
// time order.
func TestPropertyOrdering(t *testing.T) {
	f := func(delaysMS []uint16) bool {
		s := NewScheduler(7)
		var fired []time.Time
		for _, d := range delaysMS {
			at := Epoch.Add(time.Duration(d) * time.Millisecond)
			s.Schedule(at, "p", func() { fired = append(fired, s.Now()) })
		}
		s.RunFor(time.Hour)
		if len(fired) != len(delaysMS) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i].Before(fired[j]) })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: Pending decreases by exactly one per Step.
func TestPropertyPendingAccounting(t *testing.T) {
	f := func(n uint8) bool {
		s := NewScheduler(3)
		for i := 0; i < int(n); i++ {
			s.After(time.Duration(i)*time.Second, "e", func() {})
		}
		for want := int(n); want > 0; want-- {
			if s.Pending() != want {
				return false
			}
			s.Step()
		}
		return s.Pending() == 0 && !s.Step()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
