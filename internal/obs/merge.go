package obs

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"
)

// LabeledRegistry pairs a registry with the label value distinguishing
// it in a merged exposition — for the fleet runner, the tenant id.
type LabeledRegistry struct {
	// Label is the label VALUE attached to every sample of this
	// registry (the label name is WriteMergedPrometheus's argument).
	Label    string
	Registry *Registry
}

// WriteMergedPrometheus renders several registries as one Prometheus
// text exposition, prepending labelName="<Label>" to every sample so
// per-source series stay distinct. Each family's HELP/TYPE header is
// written once; series appear grouped by source in the order given
// (sources should be passed in a stable order — tenant index order in
// the fleet — so output is deterministic for deterministic inputs).
//
// Registries sharing a family name must agree on its type and its
// label names (the full name list, not just the count); a mismatch is
// an error, because merging it would produce an exposition no strict
// parser should accept.
//
// The exposition streams: each (family, source) is snapshotted under a
// short registry lock, then rendered lock-free into a pooled buffer
// that is flushed to w after every family. Peak memory is O(largest
// single family), not O(total series across all tenants) — a 1024-
// tenant scrape never materializes the merged exposition in memory.
// Label pairs and histogram bounds are copied from each registry's
// label text (familyText), rendered once; only values are formatted per
// scrape. Output bytes are identical to the pre-streaming renderer
// (pinned by TestMergedStreamingMatchesNaive).
func WriteMergedPrometheus(w io.Writer, labelName string, regs []LabeledRegistry) error {
	s := mergeScratchPool.Get().(*mergeScratch)
	defer mergeScratchPool.Put(s)
	clear(s.metas)
	s.names, s.extras, s.extraEnds = s.names[:0], s.extras[:0], s.extraEnds[:0]
	for _, lr := range regs {
		// The extra pair is the same on every sample of a registry, so
		// it is quoted once a scrape.
		if labelName != "" {
			s.extras = append(append(s.extras, labelName...), '=')
			s.extras = appendQuotedLabel(s.extras, lr.Label)
		}
		s.extraEnds = append(s.extraEnds, len(s.extras))
		r := lr.Registry
		if r == nil {
			continue
		}
		r.mu.Lock()
		for n, f := range r.families {
			m, ok := s.metas[n]
			if !ok {
				s.metas[n] = familyMeta{help: f.help, typ: f.typ, labels: f.labels}
				s.names = append(s.names, n)
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
	slices.Sort(s.names)
	for _, n := range s.names {
		m := s.metas[n]
		b := append(s.buf[:0], "# HELP "...)
		b = append(b, n...)
		b = append(b, ' ')
		b = append(b, escapeHelp(m.help)...)
		b = append(b, "\n# TYPE "...)
		b = append(b, n...)
		b = append(b, ' ')
		b = append(b, m.typ.String()...)
		b = append(b, '\n')
		for i, lr := range regs {
			if lr.Registry == nil {
				continue
			}
			if s.snapshotFamily(lr.Registry, n) {
				b = s.renderFamily(b, s.extra(i))
			}
		}
		s.buf = b
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// familyMeta is what the merge checks registries sharing a family
// agree on, and renders once in the family's header.
type familyMeta struct {
	help   string
	typ    MetricType
	labels []string
}

// familyText is a family's label text: its series in key order, each
// with its label pairs rendered, and, for a histogram, each bucket's le
// pair. Label values, label names and bucket bounds never change after
// a series is created, so neither does the text; a registry renders it
// for all its families at once, on the first scrape that finds a family
// without text or with more series than its text covers. The simulation
// path never builds it. The first-use order stays on the family: it
// fixes familyValue's float accumulation order.
type familyText struct {
	series []textSeries
	le     [][]byte // `le="bound"` per bucket, `le="+Inf"` last
}

// textSeries is one series and its label pairs, `name="value"` comma-
// separated and quoted as the naive renderer quotes them.
type textSeries struct {
	s     *series
	pairs []byte
}

// buildText renders the label text of every family of r into one
// exactly sized buffer and points each family at its part. The caller
// holds r's lock. A rebuild never writes into an older buffer, so a
// scrape still rendering from one is unaffected.
func (r *Registry) buildText(s *mergeScratch) {
	nseries, nle := 0, 0
	for _, f := range r.families {
		nseries += len(f.order)
		if f.typ == TypeHistogram {
			nle += len(f.buckets) + 1
		}
	}
	texts := make([]familyText, len(r.families))
	all := make([]textSeries, nseries)
	les := make([][]byte, nle)
	// Render into the scratch, noting where each piece ends: family by
	// family in texts' order, its series' pairs, then its le pairs.
	b, ends := s.text[:0], s.ends[:0]
	j, i, k := 0, 0, 0
	for _, f := range r.families {
		s.keys = append(s.keys[:0], f.order...)
		slices.Sort(s.keys)
		texts[j].series = all[i : i+len(s.keys) : i+len(s.keys)]
		for _, key := range s.keys {
			se := f.series[key]
			all[i].s = se
			for li, name := range f.labels {
				if li > 0 {
					b = append(b, ',')
				}
				b = append(append(b, name...), '=')
				b = appendQuotedLabel(b, se.labelValues[li])
			}
			ends = append(ends, len(b))
			i++
		}
		if f.typ == TypeHistogram {
			texts[j].le = les[k : k+len(f.buckets)+1 : k+len(f.buckets)+1]
			for _, ub := range f.buckets {
				b = strconv.AppendFloat(append(b, `le="`...), ub, 'g', -1, 64)
				b = append(b, '"')
				ends = append(ends, len(b))
			}
			b = append(b, `le="+Inf"`...)
			ends = append(ends, len(b))
			k += len(f.buckets) + 1
		}
		f.text = &texts[j]
		j++
	}
	s.text, s.ends = b, ends
	arena := append([]byte(nil), b...)
	e, start := 0, 0
	for j := range texts {
		for x := range texts[j].series {
			texts[j].series[x].pairs = arena[start:ends[e]:ends[e]]
			start = ends[e]
			e++
		}
		for x := range texts[j].le {
			texts[j].le[x] = arena[start:ends[e]:ends[e]]
			start = ends[e]
			e++
		}
	}
}

// seriesSnap is one series' values copied out from under the registry
// lock. pairs aliases the family's label text, which is never
// rewritten, while the mutable histogram counts are copied into the
// scratch's flat buffer.
type seriesSnap struct {
	pairs     []byte
	val       float64
	sum       float64
	count     uint64
	countsOff int
	countsLen int
}

// mergeScratch is the reusable working set of one streaming merge: the
// family metadata and the per-registry extra pairs, the render buffer,
// one family's snapshot, and the space a label-text rebuild renders in.
// Pooled so steady-state scrapes allocate nothing per family or series.
type mergeScratch struct {
	metas     map[string]familyMeta
	names     []string
	extras    []byte // each registry's extra pair, back to back
	extraEnds []int  // where each registry's extra pair ends in extras
	buf       []byte
	name      string
	typ       MetricType
	labeled   bool     // the family has label names
	le        [][]byte // histogram le pairs (aliases the family's text)
	series    []seriesSnap
	counts    []uint64
	keys      []string // a text rebuild's key sort
	text      []byte   // a text rebuild's render
	ends      []int    // where each piece of a text rebuild's render ends
}

var mergeScratchPool = sync.Pool{New: func() any {
	return &mergeScratch{metas: make(map[string]familyMeta)}
}}

// extra returns registry i's extra pair, empty without a label name.
func (s *mergeScratch) extra(i int) []byte {
	start := 0
	if i > 0 {
		start = s.extraEnds[i-1]
	}
	return s.extras[start:s.extraEnds[i]]
}

// snapshotFamily copies family n of r into the scratch under the
// registry lock, series in key order, building r's label text first if
// the family's is missing or stale. Returns false when r has no such
// family.
func (s *mergeScratch) snapshotFamily(r *Registry, n string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[n]
	if !ok {
		return false
	}
	if f.text == nil || len(f.text.series) != len(f.order) {
		r.buildText(s)
	}
	s.name, s.typ, s.labeled, s.le = f.name, f.typ, len(f.labels) > 0, f.text.le
	s.series = s.series[:0]
	s.counts = s.counts[:0]
	for _, ts := range f.text.series {
		se := ts.s
		snap := seriesSnap{pairs: ts.pairs, val: se.val, sum: se.sum, count: se.count}
		if f.typ == TypeHistogram {
			snap.countsOff, snap.countsLen = len(s.counts), len(se.counts)
			s.counts = append(s.counts, se.counts...)
		}
		s.series = append(s.series, snap)
	}
	return true
}

// renderFamily appends the snapshotted family to b with the extra pair
// prepended to every sample's label set, byte-identical to the naive
// oracle in the tests. No locks are held, and label text is copied, not
// formatted; only the values are.
func (s *mergeScratch) renderFamily(b, extra []byte) []byte {
	for _, sn := range s.series {
		switch s.typ {
		case TypeHistogram:
			var cum uint64
			counts := s.counts[sn.countsOff : sn.countsOff+sn.countsLen]
			for i, le := range s.le {
				cum += counts[i]
				b = s.appendPairs(append(append(b, s.name...), "_bucket{"...), extra, sn.pairs)
				if len(extra) > 0 || s.labeled {
					b = append(b, ',')
				}
				b = append(append(b, le...), "} "...)
				b = strconv.AppendUint(b, cum, 10)
				b = append(b, '\n')
			}
			b = append(append(b, s.name...), "_sum"...)
			b = s.appendLabelBlock(b, extra, sn.pairs)
			b = strconv.AppendFloat(append(b, ' '), sn.sum, 'g', -1, 64)
			b = append(append(b, '\n'), s.name...)
			b = append(b, "_count"...)
			b = s.appendLabelBlock(b, extra, sn.pairs)
			b = strconv.AppendUint(append(b, ' '), sn.count, 10)
			b = append(b, '\n')
		default:
			b = append(b, s.name...)
			b = s.appendLabelBlock(b, extra, sn.pairs)
			b = strconv.AppendFloat(append(b, ' '), sn.val, 'g', -1, 64)
			b = append(b, '\n')
		}
	}
	return b
}

// appendLabelBlock appends {pairs} or nothing when there are no labels
// at all (only possible without an extra pair).
func (s *mergeScratch) appendLabelBlock(b, extra, pairs []byte) []byte {
	if len(extra) == 0 && !s.labeled {
		return b
	}
	return append(s.appendPairs(append(b, '{'), extra, pairs), '}')
}

// appendPairs appends the extra pair, if any, then the series' label
// pairs, comma-separated.
func (s *mergeScratch) appendPairs(b, extra, pairs []byte) []byte {
	b = append(b, extra...)
	if len(extra) > 0 && s.labeled {
		b = append(b, ',')
	}
	return append(b, pairs...)
}

// appendQuotedLabel appends the label value quoted exactly as the
// naive renderer's `%q` of escapeLabel(v): a clean printable-ASCII
// value is copied between quotes; anything else falls back to
// strconv's quoting so the bytes stay identical.
func appendQuotedLabel(b []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		if c := v[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' {
			return strconv.AppendQuote(b, escapeLabel(v))
		}
	}
	b = append(b, '"')
	b = append(b, v...)
	return append(b, '"')
}
