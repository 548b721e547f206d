package obs

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// SeriesCopy holds what a read of a run of series copies out under
// their owner's lock, so the series can be rendered as JSON after it is
// released: each series' name, agg and stride, its pending bucket, and
// its retained points as the JSON the series keeps rendered
// (seriesJSON), shared with the series rather than copied point by
// point. A series whose render must start over, at its first read or
// after a halving, is copied point by point instead: Render renders it
// after the lock is released and Keep hands the render to the series
// under the lock again. A copy that is Reset and reused stops
// allocating once it has grown to the largest run it has held.
type SeriesCopy struct {
	heads   []copyHead
	err     error // encoding/json's error for the first non-finite value
	secs    []int64
	vals    []float64 // the points of the series whose render starts over
	scratch []byte    // where Render sizes the renders before it allocates them
	spans   []int     // each render's end in scratch and its room in bytes
}

// copyHead is one series of a copy.
type copyHead struct {
	name    string
	agg     Agg
	stride  int
	depth   int    // the depth of the []SeriesDump array holding the series
	points  []byte // the retained points' elements, comma-separated, once rendered
	pend    bool
	pendSec int64
	pendV   float64

	// restart is the series while its render starts over in this copy:
	// from Add, which copies its n finite points to secs and vals from
	// index from on, to Keep. room is how many more points Render
	// leaves room for behind them.
	restart       *Series
	from, n, room int
}

// seriesJSON is a series' retained points rendered once, as the
// elements of its SeriesDump's points array inside a []SeriesDump
// array nested depth levels deep. A copy renders only the points
// retained since the previous one. A halving rewrites the retained
// points and doubles the stride, so a render keeps the stride it was
// made at, and a halving makes the next read start it over in a new
// buffer: no byte below len(buf) is ever rewritten, and a reader may
// keep using the prefix it copied after the lock is released. The
// render stops before a non-finite point, which JSON cannot represent.
type seriesJSON struct {
	buf    []byte // the elements of pts[:n], comma-separated; nil iff n == 0
	n      int
	stride int // 0 until the first copy
	depth  int
}

// current reports whether j is s's render at depth: made at s's stride
// and depth, and holding points if s retains any.
func (j *seriesJSON) current(s *Series, depth int) bool {
	return j.stride == s.stride && j.depth == depth && j.n <= len(s.pts) && (j.n > 0 || len(s.pts) == 0)
}

// pointSlack is how many bytes longer than the widest point rendered so
// far a render that starts over leaves room for, for each point it
// leaves room for. A value takes at least 1 byte and at most 25
// (-0.0000012345678901234567), and the widest point may be the first,
// which has no comma, so a later point whose second is as wide as the
// widest point's always fits.
const pointSlack = 25

// Reset empties the copy, keeping its capacity but no reference to any
// series or its render.
func (c *SeriesCopy) Reset() {
	clear(c.heads)
	c.heads, c.secs, c.vals = c.heads[:0], c.secs[:0], c.vals[:0]
	c.err = nil
}

// Add copies ss, in order, for a []SeriesDump array nested depth levels
// deep: it brings each series' rendered points up to date at that depth
// and takes them with its pending bucket, name, agg and stride. A series
// whose render must start over has its points copied instead, for
// Render. Call it under the lock that guards the series; the copy stays
// valid once the lock is released.
func (c *SeriesCopy) Add(depth int, ss ...*Series) {
	fresh := 0
	for _, s := range ss {
		if s.json == nil {
			fresh++
		}
	}
	if fresh > 0 {
		states := make([]seriesJSON, fresh)
		for _, s := range ss {
			if s.json == nil {
				s.json, states = &states[0], states[1:]
			}
		}
	}
	for _, s := range ss {
		h := copyHead{name: s.name, agg: s.agg, stride: s.stride, depth: depth}
		if j := s.json; j.current(s, depth) {
			j.buf = j.render(j.buf, s)
			h.points = j.buf
			if j.n < len(s.pts) {
				c.fail(s.pts[j.n].v)
			}
		} else {
			c.copyPoints(&h, s)
		}
		if s.pend.n > 0 {
			h.pend, h.pendSec, h.pendV = true, s.pend.t.Unix(), s.pend.v
			if !finite(h.pendV) {
				c.fail(h.pendV)
			}
		}
		c.heads = append(c.heads, h)
	}
}

// AddRecorder copies every series of rec in spec order.
func (c *SeriesCopy) AddRecorder(rec *Recorder, depth int) {
	c.Add(depth, rec.series...)
}

// copyPoints starts the render of s over for h: at its first copy,
// after a halving, at a new depth, or when s has points but its render
// has none yet. It copies the points of s up to the first non-finite
// one for Render, with room for as many more as s can still retain
// before its next halving, but at most as many as it copied: the room
// is never larger than the render. A series with nothing to render
// gets its empty render now.
func (c *SeriesCopy) copyPoints(h *copyHead, s *Series) {
	from := len(c.secs)
	for _, p := range s.pts {
		if !finite(p.v) {
			c.fail(p.v)
			break
		}
		c.secs, c.vals = append(c.secs, p.t.Unix()), append(c.vals, p.v)
	}
	n := len(c.secs) - from
	if n == 0 {
		*s.json = seriesJSON{stride: s.stride, depth: h.depth}
		return
	}
	h.restart, h.from, h.n, h.room = s, from, n, min(s.budget-1-n, n)
}

// Render renders the points Add copied for the series whose render
// starts over, and reports whether there were any, for Keep. The
// renders share one new buffer, sized once: each is rendered into the
// scratch first, then copied out with room behind it for h.room points
// as wide as its widest plus pointSlack bytes. Each render is capped at
// its own part of the buffer, so catching one up past its room moves
// it rather than overwrite the next. Call it once, after the lock is
// released and before AppendJSON.
func (c *SeriesCopy) Render() bool {
	b, spans, size := c.scratch[:0], c.spans[:0], 0
	for i := range c.heads {
		h := &c.heads[i]
		if h.restart == nil {
			continue
		}
		start, widest := len(b), 0
		for k := h.from; k < h.from+h.n; k++ {
			m := len(b)
			b = appendPointJSON(b, k > h.from, c.secs[k], c.vals[k], h.depth+3)
			widest = max(widest, len(b)-m)
		}
		room := h.room * (widest + pointSlack)
		spans = append(spans, len(b), room)
		size += len(b) - start + room
	}
	c.scratch, c.spans = b, spans
	if size == 0 {
		return false
	}
	buf := make([]byte, size)
	off, start := 0, 0
	for i := range c.heads {
		h := &c.heads[i]
		if h.restart == nil {
			continue
		}
		end, room := spans[0], spans[1]
		n := copy(buf[off:], b[start:end])
		h.points = buf[off : off+n : off+n+room]
		off, start, spans = off+n+room, end, spans[2:]
	}
	return true
}

// Keep gives each series whose render Render started over that render,
// unless another copy has given it a current one meanwhile. A series
// that halved since Add takes its render too, but the render keeps the
// stride it was made at, so the next read starts it over again. Call
// it under the lock that guards the series again, after Render.
func (c *SeriesCopy) Keep() {
	for i := range c.heads {
		h := &c.heads[i]
		if s := h.restart; s != nil {
			if !s.json.current(s, h.depth) {
				*s.json = seriesJSON{buf: h.points, n: h.n, stride: h.stride, depth: h.depth}
			}
			h.restart = nil
		}
	}
}

// render appends to b the points of s from the n-th on, up to the first
// non-finite one, counting them into n.
func (j *seriesJSON) render(b []byte, s *Series) []byte {
	for ; j.n < len(s.pts) && finite(s.pts[j.n].v); j.n++ {
		p := s.pts[j.n]
		b = appendPointJSON(b, j.n > 0, p.t.Unix(), p.v, j.depth+3)
	}
	return b
}

// fail records v as the copy's error unless an earlier value is.
func (c *SeriesCopy) fail(v float64) {
	if c.err == nil {
		c.err = fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(v, 'g', -1, 64))
	}
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Err returns the error encoding/json reports for the first non-finite
// value copied, which JSON cannot represent, or nil when every value
// is finite. A document that renders copied series should report Err
// instead of rendering them, as json.Marshal of their dumps would.
func (c *SeriesCopy) Err() error { return c.err }

// AppendJSON appends series [lo, hi) of the copy, added at one
// depth, as a JSON array of their dumps, byte for byte as json.Encoder
// with SetIndent("", "  ") renders a []SeriesDump nested that deep:
// elements indented depth+1 steps, the closing bracket depth steps.
// Call it only when Err is nil, and after Render.
func (c *SeriesCopy) AppendJSON(b []byte, lo, hi int) []byte {
	if lo == hi {
		return append(b, "[]"...)
	}
	depth := c.heads[lo].depth
	b = append(b, '[')
	for i := lo; i < hi; i++ {
		if i > lo {
			b = append(b, ',')
		}
		b = appendIndent(b, depth+1)
		b = c.heads[i].appendJSON(b, depth+1)
	}
	b = appendIndent(b, depth)
	return append(b, ']')
}

// appendJSON appends the series as one SeriesDump object nested depth
// levels deep.
func (h *copyHead) appendJSON(b []byte, depth int) []byte {
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
	b = append(b, h.points...)
	if h.pend {
		b = appendPointJSON(b, len(h.points) > 0, h.pendSec, h.pendV, depth+2)
	}
	if len(h.points) > 0 || h.pend {
		b = appendIndent(b, depth+1)
	}
	b = append(b, ']')
	b = appendIndent(b, depth)
	return append(b, '}')
}

// appendPointJSON appends one [second, value] element of a points array
// whose elements are indented depth steps, after a comma unless it is
// the first.
func appendPointJSON(b []byte, comma bool, sec int64, v float64, depth int) []byte {
	if comma {
		b = append(b, ',')
	}
	b = appendIndent(b, depth)
	b = append(b, '[')
	b = appendIndent(b, depth+1)
	b = appendJSONSeconds(b, sec)
	b = append(b, ',')
	b = appendIndent(b, depth+1)
	b = appendJSONFloat(b, v)
	b = appendIndent(b, depth)
	return append(b, ']')
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
