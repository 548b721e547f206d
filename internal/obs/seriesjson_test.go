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

// renderNested wraps c.AppendJSON(lo, hi, depth) in the arrays and the
// trailing newline encodeNested adds around the same dumps.
func renderNested(c *SeriesCopy, lo, hi, depth int) []byte {
	var b []byte
	for i := 0; i < depth; i++ {
		b = append(b, "[\n"+strings.Repeat("  ", i+1)...)
	}
	b = c.AppendJSON(b, lo, hi, depth)
	for i := depth - 1; i >= 0; i-- {
		b = append(b, "\n"+strings.Repeat("  ", i)+"]"...)
	}
	return append(b, '\n')
}

// checkCopy holds a copy of series to the oracle: at depths 0 to 5,
// over every run of consecutive series (the empty run included), the
// rendering must equal encoding/json's bytes when every value is
// finite, and Err must equal encoding/json's error when one is not.
func checkCopy(t *testing.T, series ...*Series) {
	t.Helper()
	var c SeriesCopy
	c.Add(NewSeries("stale", AggSum, 4)) // Reset must drop it
	c.Reset()
	dumps := make([]SeriesDump, len(series))
	for i, s := range series {
		c.Add(s)
		dumps[i] = s.Dump()
	}
	for depth := 0; depth <= 5; depth++ {
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
// then holds the renderer to encoding/json over Dump at a fuzzed
// nesting depth: the same bytes, or the same error for a non-finite
// value. Each 16 bytes of data are one sample: the second, then the
// value's bits, little-endian. The committed corpus holds the edge
// values of TestSeriesCopyMatchesEncoder.
func FuzzSeriesJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, name string, agg, budget, depth uint8, data []byte) {
		s := NewSeries(name, Agg(agg%4), int(budget))
		for ; len(data) >= 16; data = data[16:] {
			sec := int64(binary.LittleEndian.Uint64(data))
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[8:]))
			s.Append(time.Unix(sec, 0), v)
		}
		var c SeriesCopy
		c.Add(s)
		d := int(depth % 8)
		want, err := encodeNested([]SeriesDump{s.Dump()}, d)
		if err != nil {
			if c.Err() == nil || c.Err().Error() != err.Error() {
				t.Fatalf("Err() = %v, encoding/json: %v", c.Err(), err)
			}
			return
		}
		if c.Err() != nil {
			t.Fatalf("Err() = %v, but encoding/json accepts the dump", c.Err())
		}
		if got := renderNested(&c, 0, 1, d); !bytes.Equal(got, want) {
			t.Fatalf("depth %d:\n got: %s\nwant: %s", d, got, want)
		}
	})
}
