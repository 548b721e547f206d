package workload

import (
	"math/rand"
	"time"
)

// Cursor generates an arrival stream incrementally. Successive Next
// calls with strictly increasing upTo values partition the stream:
// Next(upTo) returns (sorted) exactly the arrivals with At in
// [prevUpTo, upTo), and the final call — any upTo at or past the
// cursor's horizon end — also flushes arrivals a generator emitted past
// the horizon (ETL jitter can push a job past `to`). A streaming
// generator's Generate is that final call made alone, so concatenating
// the chunks of any plan reproduces Generate element for element, on
// the identical random stream; TestCursorMatchesGenerate pins both
// against the whole-horizon loops kept in naive_test.go.
//
// The point is memory: a fleet tenant holds O(one epoch) of pending
// arrivals instead of materializing (and scheduling) a whole month up
// front.
type Cursor interface {
	Next(upTo time.Time) []Arrival
}

// Streamer is implemented by generators that can produce their stream
// chunk-by-chunk without materializing the whole horizon. Stream takes
// the same (from, to, rng) a Generate call would; the returned cursor
// owns rng from then on.
type Streamer interface {
	Stream(from, to time.Time, rng *rand.Rand) Cursor
}

// NewCursor returns a chunked cursor over g's arrival stream for
// [from, to). Generators implementing Streamer stream lazily in O(chunk)
// memory; anything else falls back to one eager Generate call sliced
// lazily — same output, no memory win.
func NewCursor(g Generator, from, to time.Time, rng *rand.Rand) Cursor {
	if s, ok := g.(Streamer); ok {
		return s.Stream(from, to, rng)
	}
	return &sliceCursor{arr: g.Generate(from, to, rng), to: to}
}

// sliceCursor is the eager fallback: a pre-generated sorted slice,
// handed out in chunks.
type sliceCursor struct {
	arr []Arrival
	to  time.Time
	i   int
}

func (c *sliceCursor) Next(upTo time.Time) []Arrival {
	if !upTo.Before(c.to) { // final chunk: flush everything left
		out := c.arr[c.i:]
		c.i = len(c.arr)
		return out
	}
	start := c.i
	for c.i < len(c.arr) && c.arr[c.i].At.Before(upTo) {
		c.i++
	}
	return c.arr[start:c.i]
}

// ---------------------------------------------------------------------
// ETL

// Stream implements Streamer. A batch runs when its pre-jitter start is
// inside [from, to); jobs whose jitter lands past the chunk boundary
// wait in a small pending buffer until the chunk containing their
// arrival time, and the final chunk flushes those past `to`.
func (e ETL) Stream(from, to time.Time, rng *rand.Rand) Cursor {
	period := e.Period
	if period <= 0 {
		period = time.Hour
	}
	users := e.Users
	if len(users) == 0 {
		users = []string{"etl-service"}
	}
	return &etlCursor{e: e, from: from, to: to, rng: rng,
		period: period, users: users, batch: from.Truncate(period)}
}

type etlCursor struct {
	e        ETL
	from, to time.Time
	rng      *rand.Rand
	period   time.Duration
	users    []string

	batch   time.Time // next grid point to consider
	seq     uint64
	pending []Arrival // generated, but At beyond the last chunk boundary
}

func (c *etlCursor) Next(upTo time.Time) []Arrival {
	final := !upTo.Before(c.to)
	var out []Arrival
	if len(c.pending) > 0 {
		rest := c.pending[:0]
		for _, a := range c.pending {
			if final || a.At.Before(upTo) {
				out = append(out, a)
			} else {
				rest = append(rest, a)
			}
		}
		c.pending = rest
	}
	for ; c.batch.Before(c.to); c.batch = c.batch.Add(c.period) {
		at := c.batch.Add(c.e.Offset)
		if at.Before(c.from) || !at.Before(c.to) {
			continue // outside the horizon: no draws here
		}
		if !at.Before(upTo) {
			break // future chunk; its draws happen on a later Next
		}
		for j := 0; j < c.e.JobsPerBatch; j++ {
			tpl := c.e.Pool.Templates[j%c.e.Pool.Len()]
			c.seq++
			q := tpl.Instantiate(c.rng, c.seq, UserHash(c.users[j%len(c.users)]))
			jitter := time.Duration(0)
			if c.e.Jitter > 0 {
				jitter = time.Duration(c.rng.Int63n(int64(c.e.Jitter)))
			}
			a := Arrival{At: at.Add(jitter), Query: q}
			if final || a.At.Before(upTo) {
				out = append(out, a)
			} else {
				c.pending = append(c.pending, a)
			}
		}
	}
	sortArrivals(out)
	return out
}

// ---------------------------------------------------------------------
// BI and AdHoc: thinned Poisson arrivals

// Stream implements Streamer: a non-homogeneous Poisson process via
// thinning against the peak of the two-bump curve.
func (b BI) Stream(from, to time.Time, rng *rand.Rand) Cursor {
	users := b.Users
	if len(users) == 0 {
		users = []string{"analyst-1", "analyst-2", "analyst-3"}
	}
	return newThinningCursor(b.Pool, users, b.rate, b.PeakQPH*1.8, from, to, rng)
}

// Stream implements Streamer. The per-day multipliers and burst windows
// are drawn up front so the rate function is well-defined for thinning;
// they are O(days) scalars, not arrivals, so the cursor still holds
// O(chunk) arrivals.
func (a AdHoc) Stream(from, to time.Time, rng *rand.Rand) Cursor {
	users := a.Users
	if len(users) == 0 {
		users = []string{"scientist-1", "scientist-2"}
	}
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
		if t.Hour() < 7 {
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
	// A generous bound, not a strict one: a heavy day's multiplier can
	// lift the rate past it, and then every candidate is kept.
	maxRate := a.BaseQPH*8 + a.BurstQPH*3
	if a.MonthEndFactor > 1 {
		maxRate *= a.MonthEndFactor
	}
	return newThinningCursor(a.Pool, users, rate, maxRate, from, to, rng)
}

// thinningCursor streams a non-homogeneous Poisson process by thinning:
// candidates arrive at the bounding rate maxRate, and each is kept with
// probability rate(t)/maxRate. A kept candidate then draws its template
// and its user, in that order. Next pauses the loop at chunk boundaries
// with (rng, t, seq) carried across calls.
type thinningCursor struct {
	pool    *Pool
	users   []string
	rate    func(time.Time) float64
	maxRate float64
	to      time.Time
	rng     *rand.Rand

	t    time.Time
	seq  uint64
	pend Arrival
	have bool
	done bool
}

// newThinningCursor starts the stream at from. A bound of zero or less
// means no arrivals: the exponential gap at a zero rate is infinite.
func newThinningCursor(pool *Pool, users []string, rate func(time.Time) float64,
	maxRate float64, from, to time.Time, rng *rand.Rand) *thinningCursor {
	return &thinningCursor{pool: pool, users: users, rate: rate, maxRate: maxRate,
		to: to, rng: rng, t: from, done: maxRate <= 0}
}

func (c *thinningCursor) Next(upTo time.Time) []Arrival {
	final := !upTo.Before(c.to)
	var out []Arrival
	if c.have {
		if !final && !c.pend.At.Before(upTo) {
			return nil // chunk ends before the buffered arrival
		}
		out = append(out, c.pend)
		c.have = false
	}
	for !c.done {
		if !final && !c.t.Before(upTo) {
			break // stream has reached this chunk's end
		}
		gapHours := c.rng.ExpFloat64() / c.maxRate
		c.t = c.t.Add(time.Duration(gapHours * float64(time.Hour)))
		if !c.t.Before(c.to) {
			c.done = true
			break
		}
		if c.rng.Float64()*c.maxRate > c.rate(c.t) {
			continue // thinned
		}
		tpl := c.pool.Draw(c.rng)
		c.seq++
		q := tpl.Instantiate(c.rng, c.seq, UserHash(c.users[c.rng.Intn(len(c.users))]))
		a := Arrival{At: c.t, Query: q}
		if final || a.At.Before(upTo) {
			out = append(out, a)
		} else {
			c.pend, c.have = a, true
			break
		}
	}
	sortArrivals(out)
	return out
}

// ---------------------------------------------------------------------
// Mixed

// Stream implements Streamer: each part gets an independent sub-stream
// derived from rng, for stability under reordering of parts, and the
// parts are merged chunk by chunk.
func (m Mixed) Stream(from, to time.Time, rng *rand.Rand) Cursor {
	parts := make([]Cursor, len(m.Parts))
	for i, g := range m.Parts {
		sub := rand.New(rand.NewSource(rng.Int63() + int64(i)))
		parts[i] = NewCursor(g, from, to, sub)
	}
	return &mixedCursor{parts: parts}
}

type mixedCursor struct {
	parts []Cursor
}

func (c *mixedCursor) Next(upTo time.Time) []Arrival {
	var out []Arrival
	for _, p := range c.parts {
		out = append(out, p.Next(upTo)...)
	}
	sortArrivals(out)
	return out
}
