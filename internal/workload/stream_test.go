package workload

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"kwo/internal/simclock"
)

// streamGenerators returns the generator shapes the fleet provisions
// (plus the non-Streamer fallbacks), parameterized like fleet tenants.
// Spikes sit 26 h after from, inside every horizon.
func streamGenerators(from time.Time) map[string]Generator {
	bi, etl, adhoc := StandardPools()
	spike := Spike{Pool: bi, At: from.Add(26 * time.Hour), Count: 40, Over: 3 * time.Minute}
	return map[string]Generator{
		"etl": ETL{Pool: etl, Period: time.Hour, Offset: 5 * time.Minute,
			JobsPerBatch: 3, Jitter: 2 * time.Minute},
		"etl-jitter-overflow": ETL{Pool: etl, Period: 30 * time.Minute, Offset: 25 * time.Minute,
			JobsPerBatch: 2, Jitter: 20 * time.Minute}, // jitter crosses chunk and horizon ends
		"bi":      BI{Pool: bi, PeakQPH: 18, WeekendFactor: 0.2},
		"bi-zero": BI{Pool: bi, PeakQPH: 0},
		"adhoc": AdHoc{Pool: adhoc, BaseQPH: 9, DayVariance: 0.7,
			BurstsPerDay: 2, BurstQPH: 90, BurstLen: 15 * time.Minute, MonthEndFactor: 2},
		"mixed": Mixed{Parts: []Generator{
			BI{Pool: bi, PeakQPH: 12, WeekendFactor: 0.2},
			ETL{Pool: etl, Period: 2 * time.Hour, Offset: 5 * time.Minute,
				JobsPerBatch: 2, Jitter: 2 * time.Minute},
		}},
		"mixed-nested": Mixed{Label: "nested", Parts: []Generator{
			AdHoc{Pool: adhoc, BaseQPH: 4, DayVariance: 0.5, BurstsPerDay: 1, BurstQPH: 40},
			Mixed{Parts: []Generator{
				ETL{Pool: etl, Period: 3 * time.Hour, JobsPerBatch: 2, Jitter: 40 * time.Minute},
				spike,
			}},
		}},
		"spike-fallback": spike,
	}
}

// sameArrivals fails the test at the first arrival where got and want
// differ.
func sameArrivals(t *testing.T, label string, got, want []Arrival) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d arrivals, oracle %d", label, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: arrival %d differs:\ngot:    %+v\noracle: %+v", label, i, got[i], want[i])
		}
	}
}

// TestCursorMatchesGenerate is the lazy-provisioning contract: Generate,
// and pulling a generator's stream chunk by chunk — epoch-aligned or
// ragged — both yield element-for-element the arrivals of the
// whole-horizon loops in naive_test.go on the same seed. The fleet's
// unchanged fingerprints rest on this property. The second start is
// off the hour, and its 72 h horizon crosses the January month end, so
// AdHoc's MonthEndFactor applies.
func TestCursorMatchesGenerate(t *testing.T) {
	starts := []time.Time{simclock.Epoch, simclock.Epoch.Add(26*24*time.Hour + 37*time.Minute)}
	horizons := []time.Duration{36 * time.Hour, 72 * time.Hour}
	epochs := func(step time.Duration) func(*rand.Rand, time.Time, time.Time) []time.Time {
		return func(_ *rand.Rand, from, to time.Time) []time.Time {
			var cuts []time.Time
			for c := from.Add(step); c.Before(to) || c.Equal(to); c = c.Add(step) {
				cuts = append(cuts, c)
			}
			return cuts
		}
	}
	chunkPlans := map[string]func(rng *rand.Rand, from, to time.Time) []time.Time{
		"hourly-epochs": epochs(time.Hour),
		// Minute epochs end chunks inside the last batch's jitter
		// window, so jobs jittered past the horizon wait in the pending
		// buffer until the final call flushes them.
		"minute-epochs": epochs(time.Minute),
		"ragged": func(rng *rand.Rand, from, to time.Time) []time.Time {
			var cuts []time.Time
			c := from
			for {
				c = c.Add(time.Duration(rng.Int63n(int64(7 * time.Hour))))
				if !c.Before(to) {
					break
				}
				cuts = append(cuts, c)
			}
			return append(cuts, to.Add(time.Hour)) // final call past the horizon
		},
	}
	for _, from := range starts {
		for name, gen := range streamGenerators(from) {
			for _, horizon := range horizons {
				to := from.Add(horizon)
				for seed := int64(1); seed <= 5; seed++ {
					label := fmt.Sprintf("%s from %v horizon %v seed %d", name, from, horizon, seed)
					want := generateNaive(gen, from, to, rand.New(rand.NewSource(seed)))
					sameArrivals(t, label+" Generate", gen.Generate(from, to, boundedRand(seed)), want)
					for planName, plan := range chunkPlans {
						cur := NewCursor(gen, from, to, boundedRand(seed))
						cuts := plan(rand.New(rand.NewSource(seed*31)), from, to)
						if len(cuts) == 0 || cuts[len(cuts)-1].Before(to) {
							cuts = append(cuts, to)
						}
						var chunked []Arrival
						prev := from
						for _, c := range cuts {
							chunk := cur.Next(c)
							for _, a := range chunk {
								if a.At.Before(prev) {
									t.Errorf("%s %s: chunk [%v,%v) emitted arrival at %v before chunk start",
										label, planName, prev, c, a.At)
								}
								if !c.Before(to) {
									continue // final chunk may flush past-horizon jitter overflow
								}
								if !a.At.Before(c) {
									t.Errorf("%s %s: chunk ending %v emitted arrival at %v",
										label, planName, c, a.At)
								}
							}
							chunked = append(chunked, chunk...)
							prev = c
						}
						sameArrivals(t, label+" "+planName, chunked, want)
					}
				}
			}
		}
	}
}

// drawLimit is about forty times what the largest case here draws.
const drawLimit = 1 << 22

// boundedSource panics once it has handed out drawLimit numbers, so a
// generator stuck in a loop that draws on every pass fails fast instead
// of growing the heap until the test times out.
type boundedSource struct {
	rand.Source
	draws int
}

func (s *boundedSource) Int63() int64 {
	if s.draws++; s.draws > drawLimit {
		panic(fmt.Sprintf("generator drew %d numbers without returning", drawLimit))
	}
	return s.Source.Int63()
}

func boundedRand(seed int64) *rand.Rand {
	return rand.New(&boundedSource{Source: rand.NewSource(seed)})
}

// TestZeroRateGenerateTerminates: generators whose rates are all zero
// return no arrivals. Each call runs on its own goroutine under a
// deadline, so a generator that never returns fails the test instead of
// hanging the suite.
func TestZeroRateGenerateTerminates(t *testing.T) {
	bi, _, adhoc := StandardPools()
	for _, gen := range []Generator{AdHoc{Pool: adhoc}, BI{Pool: bi}} {
		n := make(chan int, 1)
		go func() { n <- len(gen.Generate(start, start.Add(72*time.Hour), boundedRand(1))) }()
		select {
		case got := <-n:
			if got != 0 {
				t.Errorf("%s with zero rates: %d arrivals, want 0", gen.Name(), got)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s with zero rates: Generate did not return within 10s", gen.Name())
		}
	}
}

// TestCursorJitterOverflowFlushed pins the horizon-end contract: an ETL
// batch whose pre-jitter time is inside the horizon but whose jitter
// lands past it appears in whole-horizon Generate output, so the final
// Next call must flush it rather than drop it.
func TestCursorJitterOverflowFlushed(t *testing.T) {
	_, etl, _ := StandardPools()
	gen := ETL{Pool: etl, Period: time.Hour, Offset: 55 * time.Minute,
		JobsPerBatch: 4, Jitter: 30 * time.Minute}
	from := simclock.Epoch
	to := from.Add(24 * time.Hour)
	var overflow bool
	for seed := int64(1); seed <= 20 && !overflow; seed++ {
		whole := gen.Generate(from, to, rand.New(rand.NewSource(seed)))
		for _, a := range whole {
			if !a.At.Before(to) {
				overflow = true
			}
		}
		cur := NewCursor(gen, from, to, rand.New(rand.NewSource(seed)))
		var chunked []Arrival
		for c := from.Add(6 * time.Hour); ; c = c.Add(6 * time.Hour) {
			chunked = append(chunked, cur.Next(c)...)
			if !c.Before(to) {
				break
			}
		}
		if !reflect.DeepEqual(chunked, whole) {
			t.Fatalf("seed %d: chunked (%d) != whole (%d) with overflow jitter", seed, len(chunked), len(whole))
		}
	}
	if !overflow {
		t.Fatal("test shape never produced a past-horizon arrival; tighten parameters")
	}
}

// TestCursorEmptyChunks: a cursor asked for many boundaries inside a
// silent stretch returns empty chunks without disturbing the stream.
func TestCursorEmptyChunks(t *testing.T) {
	bi, _, _ := StandardPools()
	gen := BI{Pool: bi, PeakQPH: 10, WeekendFactor: 0} // weekends silent
	from := simclock.Epoch.Add(4 * 24 * time.Hour)     // Friday
	to := from.Add(4 * 24 * time.Hour)                 // spans the silent weekend
	whole := gen.Generate(from, to, rand.New(rand.NewSource(9)))
	cur := NewCursor(gen, from, to, rand.New(rand.NewSource(9)))
	var chunked []Arrival
	for c := from.Add(10 * time.Minute); c.Before(to); c = c.Add(10 * time.Minute) {
		chunked = append(chunked, cur.Next(c)...)
	}
	chunked = append(chunked, cur.Next(to)...)
	if !reflect.DeepEqual(chunked, whole) {
		t.Fatalf("10-minute chunking diverged: %d vs %d arrivals", len(chunked), len(whole))
	}
}
