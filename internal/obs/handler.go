package obs

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
)

// KindFilter matches event kinds against a comma-separated allowlist
// (the ?kind= query parameter). The zero filter matches everything.
type KindFilter struct {
	kinds map[EventKind]bool
}

// ParseKindFilter builds a filter from a comma-separated list of kinds.
// Empty input (or only empty elements) yields the match-all filter.
func ParseKindFilter(csv string) KindFilter {
	var f KindFilter
	for _, part := range strings.Split(csv, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if f.kinds == nil {
			f.kinds = make(map[EventKind]bool)
		}
		f.kinds[EventKind(part)] = true
	}
	return f
}

// Match reports whether the filter admits kind.
func (f KindFilter) Match(k EventKind) bool {
	return f.kinds == nil || f.kinds[k]
}

// EventsQuery parses an /events request: ?n= (a positive integer,
// default 100) and the ?kind= filter. A malformed ?n= is answered with
// 400 and ok is false.
func EventsQuery(w http.ResponseWriter, r *http.Request) (n int, kinds KindFilter, ok bool) {
	q := r.URL.Query()
	n = 100
	if s := q.Get("n"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			http.Error(w, "n must be a positive integer", http.StatusBadRequest)
			return 0, KindFilter{}, false
		}
		n = v
	}
	return n, ParseKindFilter(q.Get("kind")), true
}

// WriteEvents writes an /events body: bus after bus, its n most recent
// events that kinds admits, oldest first, one JSON object per line.
func WriteEvents(w http.ResponseWriter, n int, kinds KindFilter, buses ...*Bus) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	var b []byte
	for _, bus := range buses {
		for _, ev := range bus.Recent(n) {
			if kinds.Match(ev.Kind) {
				b = append(ev.appendJSON(b), '\n')
			}
		}
	}
	// A failed Write means the client is gone: there is no one left
	// to report it to.
	_, _ = w.Write(b)
}

// Handler serves the ops surface for a hub:
//
//	/metrics        Prometheus text exposition of the registry
//	/events         recent events, one JSON object per line (?n=, ?kind=)
//	/healthz        liveness probe
//	/debug/pprof/*  runtime profiling
//	/               plain-text index
//
// All endpoints are read-only; scraping them cannot perturb a
// simulation.
func Handler(h *Hub) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := h.Registry.WritePrometheus(w); err != nil {
			// Headers are gone; nothing useful to do but note it.
			fmt.Fprintf(w, "# write error: %v\n", err)
		}
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		if n, kinds, ok := EventsQuery(w, r); ok {
			WriteEvents(w, n, kinds, h.Bus)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "kwo ops endpoint\n\n/metrics\n/events?n=100&kind=a,b\n/healthz\n/debug/pprof/\n")
	})
	return mux
}
