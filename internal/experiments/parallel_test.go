package experiments

import (
	"bytes"
	"runtime"
	"testing"
)

func TestRunIndexedOrderAndCompleteness(t *testing.T) {
	got := RunIndexed(23, func(i int) int { return i * i })
	if len(got) != 23 {
		t.Fatalf("got %d results", len(got))
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
	if got := RunIndexed(0, func(i int) int { return i }); got != nil {
		t.Fatalf("n=0: got %v, want nil", got)
	}
}

// scenarioSnapshots runs four independent seeds on a pool of workers
// and returns each run's full telemetry snapshot.
func scenarioSnapshots(t *testing.T, workers int) [][]byte {
	t.Helper()
	seeds := []int64{11, 12, 13, 14}
	out := make([][]byte, len(seeds))
	p := NewPool(workers)
	defer p.Close()
	p.Run(len(seeds), func(i int) {
		cfg, gen := oversizedBI(1)
		run := Scenario{Name: "par-det", Seed: seeds[i], Orig: cfg, Gen: gen,
			PreDays: 1, KwoDays: 1}.Execute()
		var buf bytes.Buffer
		if err := run.Engine.Store().WriteSnapshot(&buf); err != nil {
			t.Error(err)
		}
		out[i] = buf.Bytes()
	})
	return out
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
