package experiments

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestRunIndexedOrderAndCompleteness(t *testing.T) {
	old := MaxWorkers
	defer func() { MaxWorkers = old }()
	for _, workers := range []int{1, 2, 7, 0} {
		MaxWorkers = workers
		got := RunIndexed(23, func(i int) int { return i * i })
		if len(got) != 23 {
			t.Fatalf("workers=%d: got %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
	if got := RunIndexed(0, func(i int) int { return i }); got != nil {
		t.Fatalf("n=0: got %v, want nil", got)
	}
}

func TestRunIndexedBoundsConcurrency(t *testing.T) {
	old := MaxWorkers
	defer func() { MaxWorkers = old }()
	MaxWorkers = 3
	var inFlight, peak atomic.Int64
	var mu sync.Mutex
	RunIndexed(50, func(i int) struct{} {
		n := inFlight.Add(1)
		mu.Lock()
		if n > peak.Load() {
			peak.Store(n)
		}
		mu.Unlock()
		inFlight.Add(-1)
		return struct{}{}
	})
	if p := peak.Load(); p > 3 {
		t.Fatalf("observed %d concurrent tasks, want ≤ 3", p)
	}
}

// scenarioSnapshots runs four independent seeds through the pool and
// returns each run's full telemetry snapshot.
func scenarioSnapshots(t *testing.T, workers int) [][]byte {
	t.Helper()
	old := MaxWorkers
	MaxWorkers = workers
	defer func() { MaxWorkers = old }()
	seeds := []int64{11, 12, 13, 14}
	return RunIndexed(len(seeds), func(i int) []byte {
		cfg, gen := oversizedBI(1)
		run := Scenario{Name: "par-det", Seed: seeds[i], Orig: cfg, Gen: gen,
			PreDays: 1, KwoDays: 1}.Execute()
		var buf bytes.Buffer
		if err := run.Engine.Store().WriteSnapshot(&buf); err != nil {
			t.Error(err)
		}
		return buf.Bytes()
	})
}

// The load-bearing promise of the parallel runner: per-seed results are
// byte-identical to the sequential run — parallelism changes wall-clock
// time, never output.
func TestParallelScenariosByteIdenticalToSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scenario simulation in -short mode")
	}
	seq := scenarioSnapshots(t, 1)
	par := scenarioSnapshots(t, runtime.GOMAXPROCS(0))
	for i := range seq {
		if !bytes.Equal(seq[i], par[i]) {
			t.Fatalf("seed index %d: parallel snapshot (%d bytes) differs from sequential (%d bytes)",
				i, len(par[i]), len(seq[i]))
		}
	}
}
