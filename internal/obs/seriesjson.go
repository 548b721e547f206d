package obs

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// SeriesCopy holds the rendered points of a run of series, copied out
// under their owner's lock so they can be rendered as JSON after it is
// released: each series' name, agg and stride, and each point as its
// Unix second and value (what Dump returns) in 16 bytes a point. A
// copy that is Reset and reused stops allocating once it has grown to
// the largest run it has held.
type SeriesCopy struct {
	heads []copyHead
	secs  []int64
	vals  []float64
	err   error // encoding/json's error for the first non-finite value
}

// copyHead is one copied series; its points are secs and vals from the
// previous head's end up to its own.
type copyHead struct {
	name   string
	agg    Agg
	stride int
	end    int
}

// Reset empties the copy, keeping its capacity.
func (c *SeriesCopy) Reset() {
	c.heads, c.secs, c.vals = c.heads[:0], c.secs[:0], c.vals[:0]
	c.err = nil
}

// Add copies s: its retained points, then its pending bucket if any.
func (c *SeriesCopy) Add(s *Series) {
	for _, p := range s.pts {
		c.addPoint(p)
	}
	if s.pend.n > 0 {
		c.addPoint(s.pend)
	}
	c.heads = append(c.heads, copyHead{name: s.name, agg: s.agg, stride: s.stride, end: len(c.secs)})
}

// AddRecorder copies every series of rec in spec order.
func (c *SeriesCopy) AddRecorder(rec *Recorder) {
	for _, s := range rec.series {
		c.Add(s)
	}
}

func (c *SeriesCopy) addPoint(p point) {
	c.secs = append(c.secs, p.t.Unix())
	c.vals = append(c.vals, p.v)
	if c.err == nil && (math.IsNaN(p.v) || math.IsInf(p.v, 0)) {
		c.err = fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(p.v, 'g', -1, 64))
	}
}

// Err returns the error encoding/json reports for the first non-finite
// value copied, which JSON cannot represent, or nil when every value
// is finite. A document that renders copied series should report Err
// instead of rendering them, as json.Marshal of their dumps would.
func (c *SeriesCopy) Err() error { return c.err }

// AppendJSON appends series [lo, hi) of the copy as a JSON array of
// their dumps, byte for byte as json.Encoder with SetIndent("", "  ")
// renders a []SeriesDump nested depth levels deep: elements indented
// depth+1 steps, the closing bracket depth steps. Call it only when
// Err is nil.
func (c *SeriesCopy) AppendJSON(b []byte, lo, hi, depth int) []byte {
	if lo == hi {
		return append(b, "[]"...)
	}
	b = append(b, '[')
	for i := lo; i < hi; i++ {
		if i > lo {
			b = append(b, ',')
		}
		b = appendIndent(b, depth+1)
		b = c.appendSeries(b, i, depth+1)
	}
	b = appendIndent(b, depth)
	return append(b, ']')
}

// appendSeries appends series i as one SeriesDump object nested depth
// levels deep.
func (c *SeriesCopy) appendSeries(b []byte, i, depth int) []byte {
	h := c.heads[i]
	start := 0
	if i > 0 {
		start = c.heads[i-1].end
	}
	b = append(b, '{')
	b = appendIndent(b, depth+1)
	b = append(b, `"name": `...)
	b = AppendJSONString(b, h.name)
	b = append(b, ',')
	b = appendIndent(b, depth+1)
	b = append(b, `"agg": `...)
	b = AppendJSONString(b, h.agg.String())
	b = append(b, ',')
	b = appendIndent(b, depth+1)
	b = append(b, `"stride": `...)
	b = strconv.AppendInt(b, int64(h.stride), 10)
	b = append(b, ',')
	b = appendIndent(b, depth+1)
	b = append(b, `"points": [`...)
	for k := start; k < h.end; k++ {
		if k > start {
			b = append(b, ',')
		}
		b = appendIndent(b, depth+2)
		b = append(b, '[')
		b = appendIndent(b, depth+3)
		b = appendJSONSeconds(b, c.secs[k])
		b = append(b, ',')
		b = appendIndent(b, depth+3)
		b = appendJSONFloat(b, c.vals[k])
		b = appendIndent(b, depth+2)
		b = append(b, ']')
	}
	if h.end > start {
		b = appendIndent(b, depth+1)
	}
	b = append(b, ']')
	b = appendIndent(b, depth)
	return append(b, '}')
}

// spaces is the indentation of the deepest line the fleet renders;
// deeper lines take it more than once.
const spaces = "                "

// appendIndent starts a new line indented depth two-space steps.
func appendIndent(b []byte, depth int) []byte {
	b = append(b, '\n')
	for n := 2 * depth; n > 0; {
		k := min(n, len(spaces))
		b = append(b, spaces[:k]...)
		n -= k
	}
	return b
}

// appendJSONSeconds appends a Unix second as encoding/json renders it
// once Dump has made it a float64: below 2^53 in magnitude that is its
// integer digits, above it the float's.
func appendJSONSeconds(b []byte, sec int64) []byte {
	if -1<<53 < sec && sec < 1<<53 {
		return strconv.AppendInt(b, sec, 10)
	}
	return appendJSONFloat(b, float64(sec))
}

// appendJSONFloat appends a finite v as encoding/json renders a
// float64: the shortest form that round-trips, in exponent notation
// only below 1e-6 or from 1e21 up in magnitude, with a one-digit
// negative exponent unpadded (1e-7, not 1e-07).
func appendJSONFloat(b []byte, v float64) []byte {
	abs := math.Abs(v)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// AppendJSONString appends s as a JSON string exactly as encoding/json
// renders it with HTML escaping on (json.Marshal and json.Encoder's
// default): '"' and '\\' backslash-escaped; \b, \f, \n, \r and \t
// short-escaped; other control characters, '<', '>' and '&' as \u00XX;
// U+2028 and U+2029 as \u escapes of themselves, and each byte of
// invalid UTF-8 as the \u escape of U+FFFD.
func AppendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, "\\ufffd"...)
		case r == 0x2028 || r == 0x2029: // LINE and PARAGRAPH SEPARATOR
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
