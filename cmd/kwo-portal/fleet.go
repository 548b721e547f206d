package main

// The portal's fleet mode: a read-only dashboard over a running
// kwo-fleet ops endpoint. It fetches the three /fleet/* JSON payloads
// and renders a terminal-friendly fleet view — fleet KPI header,
// fleet-aggregate and per-tenant sparklines from the recorded epoch
// series, the SLO/error-budget table, and top-regressed drill-down rows
// linking each tenant to the `kwo-fleet -tenant -tenant-seed` command
// that replays it standalone, byte-identical.
//
// Rendering is a pure function of the payloads (no clocks, no
// randomness), so the golden test pins the view byte-for-byte against a
// canned 8-tenant rollup.

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"sort"
	"strings"
	"time"

	"kwo"
)

// fleetClient fetches /fleet/* payloads with startup-tolerant retries.
type fleetClient struct {
	base     string
	attempts int
	delay    time.Duration
}

func (c fleetClient) get(path string, v any) error {
	var lastErr error
	for i := 0; i < c.attempts; i++ {
		if i > 0 {
			time.Sleep(c.delay)
		}
		resp, err := http.Get(c.base + path)
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			lastErr = fmt.Errorf("%s: status %s", path, resp.Status)
			continue
		}
		err = json.NewDecoder(resp.Body).Decode(v)
		resp.Body.Close()
		if err != nil {
			lastErr = fmt.Errorf("%s: decode: %w", path, err)
			continue
		}
		return nil
	}
	return fmt.Errorf("fetch %s%s after %d attempts: %w", c.base, path, c.attempts, lastErr)
}

// fetchFleet pulls all three payloads.
func fetchFleet(c fleetClient) (kwo.FleetLiveKPIs, kwo.FleetTimeSeries, kwo.FleetSLOStatus, error) {
	var k kwo.FleetLiveKPIs
	var ts kwo.FleetTimeSeries
	var slo kwo.FleetSLOStatus
	if err := c.get("/fleet/kpis", &k); err != nil {
		return k, ts, slo, err
	}
	if err := c.get("/fleet/timeseries", &ts); err != nil {
		return k, ts, slo, err
	}
	if err := c.get("/fleet/slo", &slo); err != nil {
		return k, ts, slo, err
	}
	return k, ts, slo, nil
}

// fleetMain runs the portal in fleet mode: -once renders a single view
// to stdout; otherwise every request to -listen re-fetches the fleet
// endpoint and serves the current view as plain text. With a checkpoint
// path the payloads come from replaying the checkpoint instead of a
// live endpoint — the offline view of a crashed run.
func fleetMain(fleetURL, checkpointPath, listen string, once bool) {
	if checkpointPath != "" {
		cp, err := kwo.LoadFleetCheckpoint(checkpointPath)
		if err != nil {
			log.Fatalf("kwo-portal: %v", err)
		}
		// The checkpoint pins every behaviour knob except the engine
		// options, which kwo-fleet always runs at their defaults.
		k, ts, slo, err := kwo.FleetCheckpointView(cp, kwo.FleetConfig{})
		if err != nil {
			log.Fatalf("kwo-portal: %v", err)
		}
		fmt.Print(renderFleetView(&k, &ts, &slo))
		return
	}
	c := fleetClient{base: strings.TrimRight(fleetURL, "/"), attempts: 60, delay: time.Second}
	if once {
		k, ts, slo, err := fetchFleet(c)
		if err != nil {
			log.Fatalf("kwo-portal: %v", err)
		}
		fmt.Print(renderFleetView(&k, &ts, &slo))
		return
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		k, ts, slo, err := fetchFleet(fleetClient{base: c.base, attempts: 1, delay: 0})
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, renderFleetView(&k, &ts, &slo))
	})
	fmt.Printf("kwo-portal: fleet view of %s on %s\n", c.base, listen)
	log.Fatal(http.ListenAndServe(listen, mux))
}

// sparkBlocks are the eight sparkline levels, lowest to highest.
var sparkBlocks = []rune("▁▂▃▄▅▆▇█")

// spark renders values as a unicode sparkline, min-max normalized;
// width is capped by keeping the most recent points. Flat series render
// mid-level, empty series a single dot.
func spark(points [][2]float64, width int) string {
	if len(points) == 0 {
		return "·"
	}
	if len(points) > width {
		points = points[len(points)-width:]
	}
	lo, hi := points[0][1], points[0][1]
	for _, p := range points[1:] {
		if p[1] < lo {
			lo = p[1]
		}
		if p[1] > hi {
			hi = p[1]
		}
	}
	var b strings.Builder
	for _, p := range points {
		idx := len(sparkBlocks) / 2
		if hi > lo {
			idx = int((p[1] - lo) / (hi - lo) * float64(len(sparkBlocks)-1))
		}
		b.WriteRune(sparkBlocks[idx])
	}
	return b.String()
}

// seriesOf finds a named series dump in a list (nil Points when absent).
func seriesOf(dumps []kwo.ObsSeriesDump, name string) kwo.ObsSeriesDump {
	for _, d := range dumps {
		if d.Name == name {
			return d
		}
	}
	return kwo.ObsSeriesDump{Name: name}
}

// savingsShare is savings/(spend+savings) from a tenant's latest
// sampled values; 0 when there is no spend yet.
func savingsShare(last map[string]float64) float64 {
	spend, savings := last["spend_credits"], last["savings_credits"]
	if spend+savings <= 0 {
		return 0
	}
	return savings / (spend + savings)
}

const sparkWidth = 48

// renderFleetView renders the fleet dashboard from the three /fleet/*
// payloads. Pure: the output is a function of the payloads alone.
func renderFleetView(k *kwo.FleetLiveKPIs, ts *kwo.FleetTimeSeries, slo *kwo.FleetSLOStatus) string {
	var b strings.Builder

	// Header: fleet identity and progress.
	state := "running"
	if k.Done {
		state = "done"
	}
	fmt.Fprintf(&b, "KWO FLEET  seed %d · %d tenants · epoch %d/%d (%s) · sim time %s\n",
		k.Seed, k.Tenants, k.Epoch, k.Epochs, state, k.Now.UTC().Format(time.RFC3339))
	fleetSpend, fleetSavings := k.Fleet["spend_credits"], k.Fleet["savings_credits"]
	share := 0.0
	if fleetSpend+fleetSavings > 0 {
		share = 100 * fleetSavings / (fleetSpend + fleetSavings)
	}
	fmt.Fprintf(&b, "queries %.0f · spend %.2f cr · savings %.2f cr (%.1f%%) · degraded tenants %.1f · slo %d/%d passing",
		fleetSeriesTotal(ts, "queries"), fleetSpend, fleetSavings, share,
		k.Fleet["degraded"], k.Tenants-k.SLOFailing, k.Tenants)
	if k.Quarantined > 0 {
		fmt.Fprintf(&b, " · quarantined %d", k.Quarantined)
	}
	b.WriteString("\n\n")

	// Fleet-aggregate sparklines.
	fmt.Fprintf(&b, "fleet series (point budget %d)\n", ts.Budget)
	for _, d := range ts.Fleet {
		last := 0.0
		if n := len(d.Points); n > 0 {
			last = d.Points[n-1][1]
		}
		fmt.Fprintf(&b, "  %-22s %-*s last %.4g\n", d.Name, sparkWidth, spark(d.Points, sparkWidth), last)
	}
	b.WriteByte('\n')

	// SLO table: objectives with per-fleet failing counts and the worst
	// burn any tenant shows on each objective.
	fmt.Fprintf(&b, "slo objectives (%d passing, %d failing, worst burn %.2f)\n",
		slo.Passing, slo.Failing, slo.WorstBurn)
	fmt.Fprintf(&b, "  %-18s %-12s %8s %8s %11s\n", "OBJECTIVE", "KIND", "TARGET", "FAILING", "WORST BURN")
	for _, o := range slo.Objectives {
		worst := 0.0
		for _, t := range slo.PerTenant {
			for _, v := range t.Verdicts {
				if v.Objective == o.Name && v.Burn > worst {
					worst = v.Burn
				}
			}
		}
		fmt.Fprintf(&b, "  %-18s %-12s %8.4g %8d %11.2f\n",
			o.Name, o.Kind.String(), o.Target, slo.FailingByObjective[o.Name], worst)
	}
	b.WriteByte('\n')

	// Alert plane: breach/recovery/quarantine counts plus the most
	// recent alerts from the deterministic tracker log. Rendered only
	// when the run has alerted at all.
	if slo.Alerts.Total > 0 {
		fmt.Fprintf(&b, "alerts (%d total: %d breaches, %d recoveries, %d quarantines",
			slo.Alerts.Total, slo.Alerts.Breaches, slo.Alerts.Recoveries, slo.Alerts.Quarantines)
		if len(slo.Alerts.Firing) > 0 {
			fmt.Fprintf(&b, "; firing: %s", strings.Join(slo.Alerts.Firing, ", "))
		}
		b.WriteString(")\n")
		recent := slo.Alerts.Recent
		if len(recent) > 5 {
			recent = recent[len(recent)-5:]
		}
		for _, a := range recent {
			fmt.Fprintf(&b, "  %s\n", a.String())
		}
		b.WriteByte('\n')
	}

	// Per-tenant table, most regressed first: SLO failures (worst burn
	// first), then degraded, then lowest savings share, then index.
	rows := append([]kwo.FleetTenantLive(nil), k.PerTenant...)
	sort.SliceStable(rows, func(i, j int) bool {
		a, c := rows[i], rows[j]
		if a.Quarantined != c.Quarantined {
			return a.Quarantined
		}
		if a.SLOPass != c.SLOPass {
			return !a.SLOPass
		}
		if !a.SLOPass && a.WorstBurn != c.WorstBurn {
			return a.WorstBurn > c.WorstBurn
		}
		ad, cd := a.Last["degraded"] > 0, c.Last["degraded"] > 0
		if ad != cd {
			return ad
		}
		as, cs := savingsShare(a.Last), savingsShare(c.Last)
		if as != cs {
			return as < cs
		}
		return a.Index < c.Index
	})
	fmt.Fprintf(&b, "tenants (most regressed first)\n")
	fmt.Fprintf(&b, "  %-6s %-5s %6s %9s %8s %8s  %s\n",
		"TENANT", "SLO", "BURN", "SAVINGS%", "P99s", "QUERIES", "QUERIES/EPOCH")
	for _, row := range rows {
		pass := "ok"
		if !row.SLOPass {
			pass = "FAIL"
		}
		if row.Quarantined {
			pass = "QUAR"
		}
		tsRow := kwo.ObsSeriesDump{}
		for _, t := range ts.PerTenant {
			if t.Tenant == row.Tenant {
				tsRow = seriesOf(t.Series, "queries")
				break
			}
		}
		var queries float64
		for _, p := range tsRow.Points {
			queries += p[1]
		}
		fmt.Fprintf(&b, "  %-6s %-5s %6.2f %9.1f %8.3f %8.0f  %s\n",
			row.Tenant, pass, row.WorstBurn, 100*savingsShare(row.Last),
			row.Last["p99_seconds"], queries, spark(tsRow.Points, sparkWidth))
	}
	b.WriteByte('\n')

	// Drill-down: replay commands for every SLO-failing tenant (or a
	// note that none fail). The command reproduces the tenant
	// standalone, byte-identical to its in-fleet run.
	failing := 0
	for _, row := range rows {
		if !row.SLOPass {
			failing++
		}
	}
	if failing == 0 {
		fmt.Fprintf(&b, "drill-down: no slo-failing tenants\n")
	} else {
		fmt.Fprintf(&b, "drill-down (replay an slo-failing tenant standalone, byte-identical):\n")
		for _, row := range rows {
			if row.SLOPass {
				continue
			}
			fmt.Fprintf(&b, "  %s [%s]: %s\n", row.Tenant, strings.Join(row.Failed, ";"), row.Replay)
		}
	}
	for _, row := range rows {
		if row.Quarantined {
			fmt.Fprintf(&b, "quarantined: %s at epoch %d (%s)\n",
				row.Tenant, row.QuarantineEpoch, row.QuarantineReason)
		}
	}
	return b.String()
}

// fleetSeriesTotal sums a fleet series' points — the all-run total for
// AggSum series like queries.
func fleetSeriesTotal(ts *kwo.FleetTimeSeries, name string) float64 {
	var sum float64
	for _, p := range seriesOf(ts.Fleet, name).Points {
		sum += p[1]
	}
	return sum
}
