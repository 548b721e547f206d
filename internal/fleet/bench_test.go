package fleet

import (
	"runtime"
	"testing"
	"time"
)

// benchConfig shapes a fleet for machinery benchmarks: one-minute
// epochs keep per-epoch simulation work small, so the numbers weight
// the fan-out/provisioning overhead the tentpole targets rather than
// optimizer math.
func benchConfig(tenants, epochs int) Config {
	return Config{
		Tenants: tenants,
		Seed:    7,
		// Pinned (not per-CPU): on a single-core runner workers=0 would
		// collapse both fan-out paths to inline execution and the
		// pool-vs-respawn comparison would measure nothing.
		Workers:     8,
		Epochs:      epochs,
		EpochLen:    time.Minute,
		AttachEpoch: 1,
		Opts:        lightOpts(),
	}
}

// benchFleetEpoch measures steady-state RunEpoch cost at a given fleet
// width, after the fleet is provisioned and the optimizers attached.
func benchFleetEpoch(b *testing.B, tenants int, respawn bool) {
	cfg := benchConfig(tenants, b.N+2)
	cfg.respawnPool = respawn
	f, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 2; i++ { // warm through attach before timing
		if err := f.RunEpoch(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.RunEpoch(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFleetEpoch16(b *testing.B)   { benchFleetEpoch(b, 16, false) }
func BenchmarkFleetEpoch256(b *testing.B)  { benchFleetEpoch(b, 256, false) }
func BenchmarkFleetEpoch1024(b *testing.B) { benchFleetEpoch(b, 1024, false) }

// *Naive* companions run the identical fleet through the
// pre-optimization fan-out: a fresh goroutine spawn per epoch instead
// of the persistent pool. The delta is what the pool buys.
func BenchmarkFleetEpochNaive16(b *testing.B)   { benchFleetEpoch(b, 16, true) }
func BenchmarkFleetEpochNaive256(b *testing.B)  { benchFleetEpoch(b, 256, true) }
func BenchmarkFleetEpochNaive1024(b *testing.B) { benchFleetEpoch(b, 1024, true) }

// benchProvision measures New — tenant provisioning — for a 64-tenant
// fleet over a month of hourly epochs. Lazy provisioning defers the
// arrival stream, so this is engine/profile setup; the Naive companion
// pays whole-horizon generation up front.
func benchProvision(b *testing.B, eager bool) {
	cfg := Config{
		Tenants:  64,
		Seed:     7,
		Epochs:   720, // a month of hours
		EpochLen: time.Hour,
		Opts:     lightOpts(),
	}
	cfg.eagerProvision = eager
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		f.Close()
	}
}

func BenchmarkFleetProvision(b *testing.B)      { benchProvision(b, false) }
func BenchmarkFleetProvisionNaive(b *testing.B) { benchProvision(b, true) }

// TestLazyProvisioningMemoryFlat is the tentpole's memory claim as a
// regression test: provisioning a fleet over a long horizon must NOT
// materialize the horizon's arrivals. Heap growth from a lazy New is
// required to be well under the eager path's, which holds a month of
// arrival structs per tenant.
func TestLazyProvisioningMemoryFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation skews heap accounting")
	}
	cfg := Config{
		Tenants:  16,
		Seed:     7,
		Epochs:   720,
		EpochLen: time.Hour,
		Opts:     lightOpts(),
	}
	heapAfterNew := func(eager bool) uint64 {
		c := cfg
		c.eagerProvision = eager
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		f.Close()
		runtime.KeepAlive(f)
		if after.HeapAlloc < before.HeapAlloc {
			return 0
		}
		return after.HeapAlloc - before.HeapAlloc
	}
	lazy := heapAfterNew(false)
	eager := heapAfterNew(true)
	if lazy*2 > eager {
		t.Errorf("lazy provisioning holds %d bytes, eager %d — lazy should be well under half (arrival horizon not deferred?)",
			lazy, eager)
	}
	t.Logf("heap after New: lazy=%d eager=%d", lazy, eager)
}
