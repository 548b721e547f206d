package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"kwo/internal/cdw"
)

// Arrival is one query arriving at a warehouse at a point in time.
type Arrival struct {
	At    time.Time
	Query cdw.Query
}

// Generator produces a deterministic arrival stream for a time range.
type Generator interface {
	// Generate returns the arrivals for [from, to), sorted by time.
	// Work that starts inside the range may arrive past to: ETL jitter
	// can push a batch's jobs beyond it, and they are included.
	Generate(from, to time.Time, rng *rand.Rand) []Arrival
	// Name identifies the generator in experiment output.
	Name() string
}

// sortArrivals sorts in place by time, breaking ties by text hash so the
// order is deterministic.
func sortArrivals(a []Arrival) {
	sort.Slice(a, func(i, j int) bool {
		if a[i].At.Equal(a[j].At) {
			return a[i].Query.TextHash < a[j].Query.TextHash
		}
		return a[i].At.Before(a[j].At)
	})
}

// ---------------------------------------------------------------------
// ETL: scheduled, highly recurring batches.

// ETL models a warehouse serving scheduled pipeline jobs: every Period a
// batch of jobs runs, drawn from a fixed set of recurring templates with
// small jitter. This is the paper's "relatively static workloads over
// time (for performing ETL tasks)" shape (Figures 4b, 6).
type ETL struct {
	Pool *Pool
	// Period between batch runs (e.g. time.Hour).
	Period time.Duration
	// Offset into each period when the batch starts (e.g. 5 minutes).
	Offset time.Duration
	// JobsPerBatch is how many queries each batch runs.
	JobsPerBatch int
	// Jitter randomizes each job's start within the batch window.
	Jitter time.Duration
	// Users is the set of synthetic service users submitting jobs.
	Users []string
}

// Name implements Generator.
func (e ETL) Name() string { return "etl" }

// Generate implements Generator by draining Stream in one chunk.
func (e ETL) Generate(from, to time.Time, rng *rand.Rand) []Arrival {
	return e.Stream(from, to, rng).Next(to)
}

// ---------------------------------------------------------------------
// BI: business-hours, cache-sensitive dashboard traffic.

// BI models dashboard and analyst traffic: Poisson arrivals whose rate
// follows a business-hours curve (weekdays, peaking late morning and
// mid-afternoon), drawing heavily reused cache-sensitive templates.
type BI struct {
	Pool *Pool
	// PeakQPH is the arrival rate, queries per hour, at the busiest
	// point of the day.
	PeakQPH float64
	// WeekendFactor scales weekend traffic (0 disables weekends).
	WeekendFactor float64
	// Users is the analyst population.
	Users []string
}

// Name implements Generator.
func (b BI) Name() string { return "bi" }

// rate returns the expected queries/hour at t.
func (b BI) rate(t time.Time) float64 {
	h := float64(t.Hour()) + float64(t.Minute())/60
	day := t.Weekday()
	weekday := day != time.Saturday && day != time.Sunday
	// Two-bump business-hours curve between 8:00 and 19:00.
	var shape float64
	if h >= 8 && h <= 19 {
		shape = math.Exp(-sq(h-10.5)/4.5) + 0.8*math.Exp(-sq(h-15.0)/5.0)
	}
	r := b.PeakQPH * shape
	if !weekday {
		r *= b.WeekendFactor
	}
	return r
}

func sq(x float64) float64 { return x * x }

// Generate implements Generator by draining Stream in one chunk.
func (b BI) Generate(from, to time.Time, rng *rand.Rand) []Arrival {
	return b.Stream(from, to, rng).Next(to)
}

// ---------------------------------------------------------------------
// AdHoc: unpredictable exploratory analytics.

// AdHoc models exploratory analyst traffic: a baseline Poisson rate
// modulated by a random per-day activity multiplier (some days are
// near-silent, some are heavy), random bursts, heavier-tailed work, and
// an optional month-end surge. This is the "less predictable workloads"
// shape of Figure 4a.
type AdHoc struct {
	Pool *Pool
	// BaseQPH is the average arrival rate during active periods.
	BaseQPH float64
	// DayVariance controls the per-day lognormal activity multiplier;
	// 0 disables it, ~0.8 gives the strong day-to-day swings of
	// Figure 4a.
	DayVariance float64
	// BurstsPerDay is the expected number of short load bursts each day.
	BurstsPerDay float64
	// BurstQPH is the arrival rate inside a burst.
	BurstQPH float64
	// BurstLen is the mean burst duration.
	BurstLen time.Duration
	// MonthEndFactor multiplies the rate during the last two days of
	// the month (reporting crunch). 1 disables.
	MonthEndFactor float64
	// Users is the analyst population.
	Users []string
}

// Name implements Generator.
func (a AdHoc) Name() string { return "adhoc" }

type burst struct {
	start time.Time
	end   time.Time
}

// Generate implements Generator by draining Stream in one chunk.
func (a AdHoc) Generate(from, to time.Time, rng *rand.Rand) []Arrival {
	return a.Stream(from, to, rng).Next(to)
}

// poisson draws a Poisson variate with the given mean (Knuth's method;
// means here are small).
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// ---------------------------------------------------------------------
// Mixed: overlay of several generators.

// Mixed merges the arrival streams of several generators, modelling a
// warehouse shared by multiple applications.
type Mixed struct {
	Parts []Generator
	Label string
}

// Name implements Generator.
func (m Mixed) Name() string {
	if m.Label != "" {
		return m.Label
	}
	return "mixed"
}

// Generate implements Generator by draining Stream in one chunk.
func (m Mixed) Generate(from, to time.Time, rng *rand.Rand) []Arrival {
	return m.Stream(from, to, rng).Next(to)
}

// Stall injects a clump of long-running queries at one instant — far
// more work than the warehouse has slots, so the queue backs up and
// stays backed up for a while. Fault-injection tests use it to assert
// that queued work always drains (no dispatch deadlock) and that the
// monitor flags the queueing.
type Stall struct {
	At       time.Time
	Count    int
	WorkSecs float64 // warm X-Small execution seconds per query
}

// Name implements Generator.
func (s Stall) Name() string { return "stall" }

// Generate implements Generator.
func (s Stall) Generate(from, to time.Time, rng *rand.Rand) []Arrival {
	if s.At.Before(from) || !s.At.Before(to) || s.Count <= 0 {
		return nil
	}
	work := s.WorkSecs
	if work <= 0 {
		work = 120
	}
	var out []Arrival
	for i := 0; i < s.Count; i++ {
		q := cdw.Query{
			TextHash:     hash64(fmt.Sprintf("stall-query-%d", i)),
			TemplateHash: hash64("template:stall"),
			UserHash:     UserHash("stall-user"),
			Work:         work * (0.75 + 0.5*rng.Float64()),
			ScaleExp:     0.9,
			ColdFactor:   0.5,
			BytesScanned: 4 << 30,
		}
		// Sub-second spread keeps arrival order deterministic while
		// avoiding a single mega-batch event.
		out = append(out, Arrival{At: s.At.Add(time.Duration(i) * 10 * time.Millisecond), Query: q})
	}
	sortArrivals(out)
	return out
}

// Spike injects a dense pulse of queries at a fixed time — used for
// failure-injection tests of the monitor's backoff behaviour.
type Spike struct {
	Pool  *Pool
	At    time.Time
	Count int
	Over  time.Duration
}

// Name implements Generator.
func (s Spike) Name() string { return "spike" }

// Generate implements Generator.
func (s Spike) Generate(from, to time.Time, rng *rand.Rand) []Arrival {
	if s.At.Before(from) || !s.At.Before(to) || s.Count <= 0 {
		return nil
	}
	over := s.Over
	if over <= 0 {
		over = time.Minute
	}
	var out []Arrival
	for i := 0; i < s.Count; i++ {
		tpl := s.Pool.Draw(rng)
		q := tpl.Instantiate(rng, uint64(i), UserHash("spike-user"))
		at := s.At.Add(time.Duration(rng.Int63n(int64(over))))
		out = append(out, Arrival{At: at, Query: q})
	}
	sortArrivals(out)
	return out
}
