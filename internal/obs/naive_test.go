package obs

// The naive Prometheus renderer: the fmt-based implementation that
// WriteMergedPrometheus and WritePrometheus replaced. It is the oracle
// the streaming renderer's output is pinned to, and the *Naive*
// benchmark companion. Exported so the external merge tests reach it.

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// RaceEnabled lets the external tests skip allocation counts under the
// race detector.
const RaceEnabled = raceEnabled

// WriteMergedPrometheusNaive is the pre-streaming implementation: it
// renders every registry's families into one in-memory string while
// holding each registry lock, O(total series) peak. Kept as the
// oracle for the byte-identity tests and the *Naive* benchmark
// companion.
func WriteMergedPrometheusNaive(w io.Writer, labelName string, regs []LabeledRegistry) error {
	type meta struct {
		help   string
		typ    MetricType
		labels []string
	}
	metas := make(map[string]meta)
	names := make([]string, 0)
	for _, lr := range regs {
		r := lr.Registry
		if r == nil {
			continue
		}
		r.mu.Lock()
		for n, f := range r.families {
			m, ok := metas[n]
			if !ok {
				metas[n] = meta{help: f.help, typ: f.typ, labels: f.labels}
				names = append(names, n)
				continue
			}
			if m.typ != f.typ || !slices.Equal(m.labels, f.labels) {
				r.mu.Unlock()
				return fmt.Errorf("obs: family %q disagrees across registries (type %v/%v, labels %v/%v)",
					n, m.typ, f.typ, m.labels, f.labels)
			}
		}
		r.mu.Unlock()
	}
	slices.Sort(names)
	var b strings.Builder
	for _, n := range names {
		m := metas[n]
		fmt.Fprintf(&b, "# HELP %s %s\n", n, escapeHelp(m.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", n, m.typ)
		for _, lr := range regs {
			r := lr.Registry
			if r == nil {
				continue
			}
			r.mu.Lock()
			if f, ok := r.families[n]; ok {
				writeFamilySeries(&b, f, labelName, lr.Label)
			}
			r.mu.Unlock()
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeFamilySeries renders every series of f in sorted key order.
// When extraName is non-empty, the pair extraName="extraValue" is
// prepended to every sample's label set — the merged multi-tenant
// exposition uses it to keep per-tenant series apart. The caller must
// hold the owning registry's lock.
func writeFamilySeries(b *strings.Builder, f *family, extraName, extraValue string) {
	names := f.labels
	if extraName != "" {
		names = append([]string{extraName}, f.labels...)
	}
	keys := append([]string(nil), f.order...)
	sort.Strings(keys)
	for _, k := range keys {
		s := f.series[k]
		values := s.labelValues
		if extraName != "" {
			values = append([]string{extraValue}, s.labelValues...)
		}
		switch f.typ {
		case TypeHistogram:
			var cum uint64
			for i, ub := range f.buckets {
				cum += s.counts[i]
				fmt.Fprintf(b, "%s_bucket{%s} %d\n", f.name,
					labelPairs(names, values, "le", formatFloat(ub)), cum)
			}
			cum += s.counts[len(f.buckets)]
			fmt.Fprintf(b, "%s_bucket{%s} %d\n", f.name,
				labelPairs(names, values, "le", "+Inf"), cum)
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name, labelBlock(names, values), formatFloat(s.sum))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name, labelBlock(names, values), s.count)
		default:
			fmt.Fprintf(b, "%s%s %s\n", f.name, labelBlock(names, values), formatFloat(s.val))
		}
	}
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelPairs renders name="value" pairs plus one extra pair (for le).
func labelPairs(names, values []string, extraName, extraValue string) string {
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", n, escapeLabel(values[i]))
	}
	if len(names) > 0 {
		b.WriteByte(',')
	}
	fmt.Fprintf(&b, "%s=%q", extraName, extraValue)
	return b.String()
}

// labelBlock renders {name="value",...} or "" when unlabeled.
func labelBlock(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", n, escapeLabel(values[i]))
	}
	b.WriteByte('}')
	return b.String()
}
