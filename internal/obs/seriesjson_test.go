package obs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

// encodeNested is the oracle SeriesCopy.AppendJSON answers to: the
// dumps as the fleet endpoints encode them (json.Encoder, two-space
// indent), nested depth one-element arrays deep.
func encodeNested(dumps []SeriesDump, depth int) ([]byte, error) {
	var v any = dumps
	for i := 0; i < depth; i++ {
		v = []any{v}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// renderNested wraps c.AppendJSON(lo, hi), series added at depth, in
// the arrays and the trailing newline encodeNested adds around the same
// dumps.
func renderNested(c *SeriesCopy, lo, hi, depth int) []byte {
	var b []byte
	for i := 0; i < depth; i++ {
		b = append(b, "[\n"+strings.Repeat("  ", i+1)...)
	}
	b = c.AppendJSON(b, lo, hi)
	for i := depth - 1; i >= 0; i-- {
		b = append(b, "\n"+strings.Repeat("  ", i)+"]"...)
	}
	return append(b, '\n')
}

// checkCopy holds a copy of series to the oracle: at depths 0 to 5,
// over every run of consecutive series (the empty run included), the
// rendering must equal encoding/json's bytes when every value is
// finite, and Err must equal encoding/json's error when one is not.
// Each depth change makes every series start its render over.
func checkCopy(t *testing.T, series ...*Series) {
	t.Helper()
	dumps := make([]SeriesDump, len(series))
	for i, s := range series {
		dumps[i] = s.Dump()
	}
	var c SeriesCopy
	for depth := 0; depth <= 5; depth++ {
		c.Add(depth, NewSeries("stale", AggSum, 4)) // Reset must drop it
		c.Reset()
		for _, s := range series {
			c.Add(depth, s)
		}
		c.Render()
		c.Keep()
		for lo := 0; lo <= len(series); lo++ {
			for hi := lo; hi <= len(series); hi++ {
				want, err := encodeNested(dumps[lo:hi], depth)
				if err != nil {
					if lo == 0 && hi == len(series) && (c.Err() == nil || c.Err().Error() != err.Error()) {
						t.Fatalf("Err() = %v, encoding/json: %v", c.Err(), err)
					}
					continue
				}
				if lo == 0 && hi == len(series) && c.Err() != nil {
					t.Fatalf("Err() = %v, but encoding/json accepts the dumps", c.Err())
				}
				if got := renderNested(&c, lo, hi, depth); !bytes.Equal(got, want) {
					t.Fatalf("series [%d, %d) at depth %d:\n got: %s\nwant: %s", lo, hi, depth, got, want)
				}
			}
		}
	}
}

// TestSeriesCopyMatchesEncoder pins the series renderer to encoding/json
// on the shapes and values a series can hold.
func TestSeriesCopyMatchesEncoder(t *testing.T) {
	series := func(name string, agg Agg, budget int, vals ...float64) *Series {
		s := NewSeries(name, agg, budget)
		for i, v := range vals {
			s.Append(tick(i), v)
		}
		return s
	}
	// Append cannot leave a series with a pending bucket and no
	// retained point: the first halving keeps half the budget.
	pendingOnly := NewSeries("pending", AggMean, 4)
	pendingOnly.stride = 2
	pendingOnly.pend = point{t: tick(1), v: 0.25, n: 1}
	atSec := func(secs ...int64) *Series {
		s := NewSeries("far", AggLast, 64)
		for _, sec := range secs {
			s.Append(time.Unix(sec, 0), float64(sec))
		}
		return s
	}
	cases := []struct {
		name   string
		series []*Series
	}{
		{"empty", []*Series{series("queries", AggSum, 8)}},
		{"pending bucket only", []*Series{pendingOnly}},
		{"retained points and a pending bucket", []*Series{series("p99", AggMax, 4, 1, 2, 3, 4, 5)}},
		{"halved twice", []*Series{series("spend", AggLast, 4, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)}},
		{"edge values", []*Series{series("edge", AggLast, 64,
			0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-7, 1e-6, 9.99e-7, 1e21, 9.99e20, -1e21,
			math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 123.456, -0.1, 1e-10, 1.5e300)}},
		{"timestamps past 2^53", []*Series{atSec(0, -1, 1<<53-1, 1<<53, 1<<53+1, 1<<60+3, -(1<<53)-1,
			-(1 << 53), math.MaxInt64, math.MinInt64)}},
		{"names to escape", []*Series{
			series("<a&b>", AggSum, 8, 1),
			series("quote\" back\\ nl\n tab\t bs\b ff\f cr\r nul\x00 us\x1f del\x7f", AggSum, 8, 2),
			series("sep\u2028 para\u2029 bad\xff\xfe utf8 \u00e9 \u65e5\u672c", AggMean, 8, 3),
		}},
		{"several series", []*Series{
			series("a", AggSum, 4),
			series("b", AggMax, 4, 7, 8, 9, 10, 11),
			series("c", AggMean, 8, 0.5),
		}},
		{"NaN", []*Series{series("a", AggLast, 8, 1), series("b", AggLast, 8, 2, math.NaN(), math.Inf(1))}},
		{"+Inf", []*Series{series("a", AggLast, 8, math.Inf(1), math.NaN())}},
		{"-Inf", []*Series{series("a", AggLast, 8, 1, 2, math.Inf(-1))}},
		{"-Inf pending", []*Series{series("a", AggLast, 4, 1, 2, 3, 4, math.Inf(-1))}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkCopy(t, tc.series...) })
	}
}

// FuzzSeriesJSON appends arbitrary float64 bit patterns at arbitrary
// Unix seconds to a series with a fuzzed name, aggregation and budget,
// and after every sample holds the renderer to encoding/json over Dump
// at a fuzzed nesting depth: the same bytes, or the same error for a
// non-finite value. Rendering after every sample drives the render
// through each path it has: caught up by one point, started over after
// a halving, stopped at a non-finite point and resumed once a halving
// folds it away. Each 16 bytes of data are one sample: the second,
// then the value's bits, little-endian. The committed corpus holds the
// edge values of TestSeriesCopyMatchesEncoder.
func FuzzSeriesJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, name string, agg, budget, depth uint8, data []byte) {
		s := NewSeries(name, Agg(agg%4), int(budget))
		d := int(depth % 8)
		var c SeriesCopy
		for k := 0; ; k++ {
			c.Reset()
			c.Add(d, s)
			c.Render()
			c.Keep()
			want, err := encodeNested([]SeriesDump{s.Dump()}, d)
			switch {
			case err != nil:
				if c.Err() == nil || c.Err().Error() != err.Error() {
					t.Fatalf("after %d samples: Err() = %v, encoding/json: %v", k, c.Err(), err)
				}
			case c.Err() != nil:
				t.Fatalf("after %d samples: Err() = %v, but encoding/json accepts the dump", k, c.Err())
			default:
				if got := renderNested(&c, 0, 1, d); !bytes.Equal(got, want) {
					t.Fatalf("after %d samples, depth %d:\n got: %s\nwant: %s", k, d, got, want)
				}
			}
			if len(data) < 16 {
				return
			}
			sec := int64(binary.LittleEndian.Uint64(data))
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[8:]))
			s.Append(time.Unix(sec, 0), v)
			data = data[16:]
		}
	})
}

// TestSeriesRenderKeepsCopiedBytes: a copy shares the series' rendered
// points instead of copying them point by point, so no later copy may
// write into bytes an earlier one holds — not when it catches a render
// up into the room behind it, which the next series' render follows in
// the same buffer, not when wider values than the room was sized for
// overflow it, not when a halving starts the renders over, and not when
// a NaN stops one. Every other copy keeps its renders late: after the
// next sample, which may have halved the series, and after the next
// copy has copied the series too, so Keep meets a series it must leave
// alone and a render another copy started over. Every copy must render
// encoding/json's bytes for the series as Add found them, and keep
// rendering them.
func TestSeriesRenderKeepsCopiedBytes(t *testing.T) {
	a, b := NewSeries("a", AggMax, 8), NewSeries("b", AggSum, 8)
	var held []*SeriesCopy
	var want [][]byte
	var late *SeriesCopy
	for i := 0; i < 40; i++ {
		v := float64(i % 4) // one digit for four samples, then about 24 characters for four
		if i%8 >= 4 {
			v = -1.2345678901234567e-300 * float64(i)
		}
		if i == 13 {
			v = math.NaN()
		}
		a.Append(tick(i), v)
		b.Append(tick(i), float64(10*i))
		oracle, err := encodeNested([]SeriesDump{a.Dump(), b.Dump()}, 2)
		c := new(SeriesCopy)
		c.Add(2, a, b)
		if late != nil {
			late.Keep()
			late = nil
		}
		c.Render()
		if i%2 == 0 {
			c.Keep()
		} else {
			late = c
		}
		if err != nil {
			if c.Err() == nil {
				t.Fatalf("after sample %d: Err() = nil, encoding/json: %v", i, err)
			}
			continue
		}
		if got := renderNested(c, 0, 2, 2); !bytes.Equal(got, oracle) {
			t.Fatalf("after sample %d:\n got: %s\nwant: %s", i, got, oracle)
		}
		held, want = append(held, c), append(want, oracle)
		for k, h := range held {
			if got := renderNested(h, 0, 2, 2); !bytes.Equal(got, want[k]) {
				t.Fatalf("after sample %d, copy %d renders other bytes:\n got: %s\nwant: %s", i, k, got, want[k])
			}
		}
	}
	if a.stride < 8 || b.stride < 8 {
		t.Fatalf("the series halved too rarely: strides %d and %d", a.stride, b.stride)
	}
}

// TestSeriesRenderRoomFollowsPoints: a render that starts over leaves
// room behind its points for the points its series can still retain
// before the next halving, but never for more points than it holds, so
// a read's memory follows the points a series retains, not its budget.
// Catching the render up past that room still renders the right bytes.
func TestSeriesRenderRoomFollowsPoints(t *testing.T) {
	s := NewSeries("x", AggSum, 1<<20)
	for i := 0; i < 3; i++ {
		s.Append(tick(i), float64(100+i))
	}
	var c SeriesCopy
	c.Add(1, s)
	c.Render()
	c.Keep()
	n, room := len(s.json.buf), cap(s.json.buf)-len(s.json.buf)
	if s.json.n != 3 || room > 2*n {
		t.Fatalf("a render of %d points in %d bytes leaves %d bytes of room", s.json.n, n, room)
	}
	for i := 3; i < 40; i++ {
		s.Append(tick(i), float64(100+i))
		c.Reset()
		c.Add(1, s)
		c.Render()
		c.Keep()
		want, _ := encodeNested([]SeriesDump{s.Dump()}, 1)
		if got := renderNested(&c, 0, 1, 1); !bytes.Equal(got, want) {
			t.Fatalf("after sample %d:\n got: %s\nwant: %s", i, got, want)
		}
	}
}

// TestSeriesKeepLeavesCurrentRenders: two reads that find the same
// render out of date each make a new one, and the first to Keep its
// render wins. A later Keep must not swap a current render, which
// reads may have caught up meanwhile, for one with fewer points.
func TestSeriesKeepLeavesCurrentRenders(t *testing.T) {
	s := NewSeries("x", AggSum, 64)
	for i := 0; i < 5; i++ {
		s.Append(tick(i), float64(i))
	}
	var first, second, third SeriesCopy
	first.Add(1, s)
	second.Add(1, s)
	first.Render()
	first.Keep()
	s.Append(tick(5), 5)
	third.Add(1, s)
	if s.json.n != 6 {
		t.Fatalf("the read after the first Keep left the render at %d points, want 6", s.json.n)
	}
	second.Render()
	second.Keep()
	if s.json.n != 6 {
		t.Fatalf("a late Keep swapped the current render of 6 points for one of %d", s.json.n)
	}
	want, _ := encodeNested([]SeriesDump{s.Dump()}, 1)
	if got := renderNested(&third, 0, 1, 1); !bytes.Equal(got, want) {
		t.Fatalf("the read that caught up the first render:\n got: %s\nwant: %s", got, want)
	}
}
