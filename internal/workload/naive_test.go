package workload

// The whole-horizon generators: the loops ETL, BI, AdHoc and Mixed ran
// before each shape became one streaming cursor that Generate drains in
// a single chunk. They are the oracle TestCursorMatchesGenerate pins
// both Generate and every chunk plan to, arrival for arrival.

import (
	"math/rand"
	"time"
)

// generateNaive runs the whole-horizon loop for g's shape. Mixed parts
// recurse, so a nested Mixed is oracle all the way down; shapes that
// never had a second implementation (Stall, Spike) use their Generate.
func generateNaive(g Generator, from, to time.Time, rng *rand.Rand) []Arrival {
	switch g := g.(type) {
	case ETL:
		return etlNaive(g, from, to, rng)
	case BI:
		return biNaive(g, from, to, rng)
	case AdHoc:
		return adhocNaive(g, from, to, rng)
	case Mixed:
		return mixedNaive(g, from, to, rng)
	}
	return g.Generate(from, to, rng)
}

func etlNaive(e ETL, from, to time.Time, rng *rand.Rand) []Arrival {
	var out []Arrival
	seq := uint64(0)
	period := e.Period
	if period <= 0 {
		period = time.Hour
	}
	users := e.Users
	if len(users) == 0 {
		users = []string{"etl-service"}
	}
	// Align the first batch to the period grid.
	start := from.Truncate(period)
	for batch := start; batch.Before(to); batch = batch.Add(period) {
		at := batch.Add(e.Offset)
		if at.Before(from) || !at.Before(to) {
			continue
		}
		for j := 0; j < e.JobsPerBatch; j++ {
			tpl := e.Pool.Templates[j%e.Pool.Len()] // fixed rotation: recurring jobs
			seq++
			q := tpl.Instantiate(rng, seq, UserHash(users[j%len(users)]))
			jitter := time.Duration(0)
			if e.Jitter > 0 {
				jitter = time.Duration(rng.Int63n(int64(e.Jitter)))
			}
			out = append(out, Arrival{At: at.Add(jitter), Query: q})
		}
	}
	sortArrivals(out)
	return out
}

// biNaive is a non-homogeneous Poisson process via thinning against
// the peak rate.
func biNaive(b BI, from, to time.Time, rng *rand.Rand) []Arrival {
	var out []Arrival
	maxRate := b.PeakQPH * 1.8 // upper bound of the two-bump curve
	if maxRate <= 0 {
		return nil
	}
	users := b.Users
	if len(users) == 0 {
		users = []string{"analyst-1", "analyst-2", "analyst-3"}
	}
	seq := uint64(0)
	t := from
	for {
		// Exponential gap at the bounding rate.
		gapHours := rng.ExpFloat64() / maxRate
		t = t.Add(time.Duration(gapHours * float64(time.Hour)))
		if !t.Before(to) {
			break
		}
		if rng.Float64()*maxRate > b.rate(t) {
			continue // thinned
		}
		tpl := b.Pool.Draw(rng)
		seq++
		q := tpl.Instantiate(rng, seq, UserHash(users[rng.Intn(len(users))]))
		out = append(out, Arrival{At: t, Query: q})
	}
	sortArrivals(out)
	return out
}

// adhocNaive never returns when BaseQPH and BurstQPH are both zero:
// the exponential gap at a zero bound is +Inf, and its conversion to
// time.Duration walks t backwards forever. Test cases keep a rate.
func adhocNaive(a AdHoc, from, to time.Time, rng *rand.Rand) []Arrival {
	users := a.Users
	if len(users) == 0 {
		users = []string{"scientist-1", "scientist-2"}
	}
	// Pre-draw per-day multipliers and burst windows so the rate
	// function is well-defined for thinning.
	days := int(to.Sub(from).Hours()/24) + 2
	dayMult := make([]float64, days)
	var bursts []burst
	for d := 0; d < days; d++ {
		dayMult[d] = 1.0
		if a.DayVariance > 0 {
			dayMult[d] = lognormal(rng, 1.0, a.DayVariance)
		}
		dayStart := from.Add(time.Duration(d) * 24 * time.Hour)
		nBursts := poisson(rng, a.BurstsPerDay)
		for i := 0; i < nBursts; i++ {
			bs := dayStart.Add(time.Duration(rng.Int63n(int64(24 * time.Hour))))
			blen := a.BurstLen
			if blen <= 0 {
				blen = 15 * time.Minute
			}
			blen = time.Duration(float64(blen) * (0.5 + rng.Float64()))
			bursts = append(bursts, burst{start: bs, end: bs.Add(blen)})
		}
	}
	rate := func(t time.Time) float64 {
		d := int(t.Sub(from).Hours() / 24)
		if d < 0 || d >= days {
			return 0
		}
		r := a.BaseQPH * dayMult[d]
		// Mild diurnal shape: active 7:00–23:00.
		h := t.Hour()
		if h < 7 {
			r *= 0.1
		}
		for _, b := range bursts {
			if !t.Before(b.start) && t.Before(b.end) {
				r += a.BurstQPH
			}
		}
		if a.MonthEndFactor > 1 {
			y, m, _ := t.Date()
			lastDay := time.Date(y, m+1, 1, 0, 0, 0, 0, t.Location()).Add(-24 * time.Hour).Day()
			if t.Day() >= lastDay-1 {
				r *= a.MonthEndFactor
			}
		}
		return r
	}
	maxRate := a.BaseQPH*8 + a.BurstQPH*3 // generous bound for thinning
	if a.MonthEndFactor > 1 {
		maxRate *= a.MonthEndFactor
	}
	var out []Arrival
	seq := uint64(0)
	t := from
	for {
		gapHours := rng.ExpFloat64() / maxRate
		t = t.Add(time.Duration(gapHours * float64(time.Hour)))
		if !t.Before(to) {
			break
		}
		r := rate(t)
		if r > maxRate {
			r = maxRate
		}
		if rng.Float64()*maxRate > r {
			continue
		}
		tpl := a.Pool.Draw(rng)
		seq++
		q := tpl.Instantiate(rng, seq, UserHash(users[rng.Intn(len(users))]))
		out = append(out, Arrival{At: t, Query: q})
	}
	sortArrivals(out)
	return out
}

func mixedNaive(m Mixed, from, to time.Time, rng *rand.Rand) []Arrival {
	var out []Arrival
	for i, g := range m.Parts {
		// Derive an independent stream per part for stability under
		// reordering of parts.
		sub := rand.New(rand.NewSource(rng.Int63() + int64(i)))
		out = append(out, generateNaive(g, from, to, sub)...)
	}
	sortArrivals(out)
	return out
}
