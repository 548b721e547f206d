package obs

import (
	"strings"
	"testing"
	"time"
)

// sanitizeMetricName folds arbitrary bytes into a valid metric-name
// suffix so the round-trip half of the fuzz target can derive a
// registry recipe from raw input.
func sanitizeMetricName(s string) string {
	var b strings.Builder
	for i := 0; i < len(s) && b.Len() < 40; i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			b.WriteByte(c)
		}
	}
	if b.Len() == 0 {
		return "x"
	}
	return b.String()
}

// FuzzParseText drives the strict exposition parser two ways:
//
//  1. Raw: arbitrary bytes must never panic, and an accepted parse
//     must yield usable lookup maps.
//  2. Round-trip: the input doubles as a recipe (metric-name suffix,
//     label value, help text) for a registry whose WritePrometheus
//     output the parser must accept with exact families and sums —
//     writer and parser can never drift apart on escaping or syntax.
func FuzzParseText(f *testing.F) {
	// A real hub exposition (full catalog at zero) as the richest seed.
	hub := NewHub(func() time.Time { return time.Unix(0, 0).UTC() })
	var real strings.Builder
	if err := hub.Registry.WritePrometheus(&real); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(real.String()))
	f.Add([]byte(""))
	f.Add([]byte("# TYPE foo counter\nfoo 1\n"))
	f.Add([]byte("# TYPE foo bogus\n"))
	f.Add([]byte("# TYPE foo\n"))
	f.Add([]byte(`foo{l="a",m="b"} 2.5` + "\n"))
	f.Add([]byte(`foo{l="unterminated} 1` + "\n"))
	f.Add([]byte(`foo{l=a} 1` + "\n"))
	f.Add([]byte(`foo{l="esc\\\"quote"} 1` + "\n"))
	f.Add([]byte("foo\n"))
	f.Add([]byte("foo NaN\nbar +Inf\n"))
	f.Add([]byte("9bad 1\n"))
	f.Add([]byte("\xff\xfe\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		in := string(data)

		// Half 1: never panic, usable result on success.
		parsed, err := ParseText(strings.NewReader(in))
		if err == nil {
			_ = parsed.Has("kwo_anything")
			_ = parsed.Sum("kwo_anything")
			for name := range parsed.Samples {
				if name == "" {
					t.Fatalf("accepted an empty sample name in %q", in)
				}
			}
		}

		// Half 2: the writer's output for a recipe derived from the
		// input must round-trip through the strict parser.
		suffix := sanitizeMetricName(in)
		val := float64(len(data))
		r := NewRegistry()
		r.NewCounterVec("c_"+suffix, in, "l").With(in).Add(val)
		r.NewGaugeVec("g_"+suffix, "fuzz gauge").With().Set(-val)
		r.NewHistogramVec("h_"+suffix, "fuzz histogram", []float64{1, 2.5}, "l").
			With(in).Observe(val)

		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatalf("WritePrometheus: %v", err)
		}
		got, err := ParseText(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("parser rejected writer output: %v\n%s", err, b.String())
		}
		for _, fam := range []string{"c_" + suffix, "g_" + suffix, "h_" + suffix} {
			if !got.Has(fam) {
				t.Fatalf("round trip lost family %s\n%s", fam, b.String())
			}
		}
		if s := got.Sum("c_" + suffix); s != val {
			t.Fatalf("counter sum %v != %v after round trip", s, val)
		}
		if s := got.Sum("g_" + suffix); s != -val {
			t.Fatalf("gauge sum %v != %v after round trip", s, -val)
		}
		if c := got.Sum("h_" + suffix + "_count"); c != 1 {
			t.Fatalf("histogram count %v != 1 after round trip", c)
		}
	})
}
