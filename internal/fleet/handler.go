package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"

	"kwo/internal/obs"
)

// TenantLabel is the label name distinguishing tenants in the merged
// metrics exposition.
const TenantLabel = "tenant"

// Handler serves the fleet ops surface:
//
//	/metrics          merged Prometheus exposition of every tenant's
//	                  registry, each sample behind tenant="tNN"
//	/events           recent trace events (?tenant=, ?n=, ?kind=a,b);
//	                  without ?tenant= all tenants are emitted in
//	                  index order
//	/fleet/kpis       live fleet + per-tenant KPIs with SLO verdicts
//	/fleet/timeseries recorded epoch series (fleet aggregate + per
//	                  tenant), downsampled to the point budget
//	/fleet/slo        per-tenant SLO verdicts, burn, and replay links
//	/healthz          liveness probe
//	/                 plain-text index
//
// All endpoints are read-only and safe to scrape while the fleet is
// advancing: registries and buses carry their own locks, the tenant
// list is immutable after New, and the /fleet/* payloads serialize on
// the observability plane's lock against epoch-boundary sampling.
// /fleet/timeseries holds that lock only to bring each series' rendered
// points up to date and copy them out, and streams its body after
// releasing it.
func Handler(f *Fleet) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := obs.WriteMergedPrometheus(w, TenantLabel, f.Registries()); err != nil {
			fmt.Fprintf(w, "# write error: %v\n", err)
		}
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		n, kinds, ok := obs.EventsQuery(w, r)
		if !ok {
			return
		}
		want := r.URL.Query().Get(TenantLabel)
		if want == "" {
			buses := make([]*obs.Bus, len(f.tenants))
			for i, t := range f.tenants {
				buses[i] = t.hub.Bus
			}
			obs.WriteEvents(w, n, kinds, buses...)
			return
		}
		for _, t := range f.tenants {
			if t.id == want {
				obs.WriteEvents(w, n, kinds, t.hub.Bus)
				return
			}
		}
		http.Error(w, fmt.Sprintf("unknown tenant %q", want), http.StatusNotFound)
	})
	mux.HandleFunc("/fleet/kpis", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, f.KPIs())
	})
	mux.HandleFunc("/fleet/timeseries", func(w http.ResponseWriter, r *http.Request) {
		if rows, ok := tenantParam(f, w, r); ok {
			w.Header().Set("Content-Type", "application/json")
			if err := f.writeTimeSeries(w, rows); err != nil {
				fmt.Fprintf(w, "\n// encode error: %v\n", err)
			}
		}
	})
	mux.HandleFunc("/fleet/slo", func(w http.ResponseWriter, r *http.Request) {
		if rows, ok := tenantParam(f, w, r); ok {
			writeJSON(w, f.sloStatus(rows))
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, "kwo fleet ops endpoint (%d tenants)\n\n/metrics\n/events?tenant=t00&n=100&kind=a,b\n/fleet/kpis\n/fleet/timeseries\n/fleet/slo\n/healthz\n",
			len(f.tenants))
	})
	return mux
}

// tenantParam resolves an optional ?tenant= query to the payload rows
// it selects: every tenant without one, that tenant's alone with one.
// Like /events' treatment of ?n=, a malformed value (not a tNN label)
// or a label outside the fleet answers 400 with a usable message
// instead of silently returning an unfiltered payload. The second
// result is false when a response was already written.
func tenantParam(f *Fleet, w http.ResponseWriter, r *http.Request) ([]*tenant, bool) {
	q := r.URL.Query()
	if !q.Has(TenantLabel) {
		return f.tenants, true
	}
	want := q.Get(TenantLabel)
	if !validTenantLabel(want) {
		http.Error(w, fmt.Sprintf("tenant must be a tNN label, got %q", want), http.StatusBadRequest)
		return nil, false
	}
	for i, t := range f.tenants {
		if t.id == want {
			return f.tenants[i : i+1], true
		}
	}
	http.Error(w, fmt.Sprintf("unknown tenant %q", want), http.StatusBadRequest)
	return nil, false
}

// validTenantLabel reports whether s has the shape of a tenant label:
// 't' followed by at least two digits (the zero-padded index).
func validTenantLabel(s string) bool {
	if len(s) < 3 || s[0] != 't' {
		return false
	}
	for i := 1; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// writeJSON renders a /fleet/* payload as deterministic indented JSON
// (encoding/json sorts map keys and uses shortest round-trip floats).
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintf(w, "\n// encode error: %v\n", err)
	}
}
