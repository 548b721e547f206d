package obs_test

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"kwo/internal/core"
	"kwo/internal/fleet"
	"kwo/internal/obs"
)

// mergeTestRegistry builds a registry shaped like a tenant hub:
// counters, gauges, and histograms, labeled and not, with values
// derived from idx so registries differ.
func mergeTestRegistry(idx, series int) *obs.Registry {
	r := obs.NewRegistry()
	r.NewCounterVec("kwo_plain_total", "plain counter").With().Add(float64(idx))
	g := r.NewGaugeVec("kwo_gauge", "labeled gauge", "warehouse", "state")
	cv := r.NewCounterVec("kwo_actions_total", "labeled counter", "kind")
	h := r.NewHistogramVec("kwo_latency_seconds", "latency", obs.ExponentialBuckets(0.1, 2, 6), "warehouse")
	for s := 0; s < series; s++ {
		wh := fmt.Sprintf("WH_%d", s)
		g.With(wh, "running").Set(float64(idx*100 + s))
		cv.With(wh).Add(float64(s + 1))
		for o := 0; o <= s%5; o++ {
			h.With(wh).Observe(0.05 * float64(idx+o+1))
		}
	}
	return r
}

func mergeTestRegs(n, series int) []obs.LabeledRegistry {
	regs := make([]obs.LabeledRegistry, n)
	for i := range regs {
		regs[i] = obs.LabeledRegistry{Label: fmt.Sprintf("t%03d", i), Registry: mergeTestRegistry(i, series)}
	}
	return regs
}

// lightFleet is a fleet config whose engines still train, decide and
// act, with few offline gradient steps so it runs fast.
func lightFleet(tenants, epochs int) fleet.Config {
	opts := core.DefaultOptions()
	opts.PretrainSteps = 40
	return fleet.Config{Tenants: tenants, Seed: 7, Workers: 2, Epochs: epochs,
		EpochLen: time.Hour, AttachEpoch: 1, Opts: opts}
}

// faultedHubs runs a small fleet whose first tenant sits behind a
// broken control plane (failed ALTERs, a billing outage) and returns
// every tenant's registry: real hubs after a fault-injected simulation.
func faultedHubs(t *testing.T) []obs.LabeledRegistry {
	t.Helper()
	cfg := lightFleet(2, 6)
	cfg.FaultRate = 0.5
	cfg.FaultTenants = []int{0}
	f, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	return f.Registries()
}

// TestMergedStreamingMatchesNaive pins the streaming renderer's output
// byte-for-byte to the naive oracle, across registries with partial
// family overlap, nil entries, escape-needing label values, and an
// empty label name (no extra label); then again after series and a
// family arrive between scrapes, which the label text the first scrape
// built does not cover: escape-needing values, keys that sort before
// every existing one, and histogram series. It also pins
// single-registry WritePrometheus, which streams through the same
// renderer, on real tenant hubs after a fault-injected simulation.
func TestMergedStreamingMatchesNaive(t *testing.T) {
	regs := mergeTestRegs(5, 7)
	// Partial overlap: one registry carries an extra family, another an
	// extra series with a label value that needs escaping.
	regs[1].Registry.NewCounterVec("kwo_only_here_total", "family missing elsewhere").With().Inc()
	regs[2].Registry.NewGaugeVec("kwo_gauge", "labeled gauge", "warehouse", "state").
		With(`nasty"wh\name`+"\nx", "suspended").Set(4.25)
	regs = append(regs, obs.LabeledRegistry{Label: "tnil", Registry: nil})
	compare := func(stage string) {
		t.Helper()
		for _, labelName := range []string{"tenant", ""} {
			var fast, naive bytes.Buffer
			if err := obs.WriteMergedPrometheus(&fast, labelName, regs); err != nil {
				t.Fatalf("%s: streaming (label %q): %v", stage, labelName, err)
			}
			if err := obs.WriteMergedPrometheusNaive(&naive, labelName, regs); err != nil {
				t.Fatalf("%s: naive (label %q): %v", stage, labelName, err)
			}
			if !bytes.Equal(fast.Bytes(), naive.Bytes()) {
				t.Fatalf("%s, label %q: streaming output differs from naive renderer:\n%s",
					stage, labelName, firstDiff(fast.String(), naive.String()))
			}
			if _, err := obs.ParseText(bytes.NewReader(fast.Bytes())); labelName != "" && err != nil {
				t.Fatalf("%s: streamed exposition does not parse strictly: %v", stage, err)
			}
		}
	}
	compare("first scrape")
	// "WH_0" and up are the existing keys; "0", "A" and "" sort first.
	g := regs[0].Registry.NewGaugeVec("kwo_gauge", "labeled gauge", "warehouse", "state")
	g.With("A", "running").Set(1)
	g.With("", "esc\\aped\"").Set(2)
	regs[3].Registry.NewCounterVec("kwo_actions_total", "labeled counter", "kind").With("0\t\u00e9").Add(3)
	h := regs[4].Registry.NewHistogramVec("kwo_latency_seconds", "latency", obs.ExponentialBuckets(0.1, 2, 6), "warehouse")
	h.With("0first").Observe(0.3)
	h.With("new\nline").Observe(9)
	regs[2].Registry.NewGaugeVec("kwo_added_later", "family registered after a scrape", "warehouse").With("AA").Set(5)
	compare("after series arrived between scrapes")

	for i, lr := range faultedHubs(t) {
		var fast, naive bytes.Buffer
		if err := lr.Registry.WritePrometheus(&fast); err != nil {
			t.Fatalf("WritePrometheus %s: %v", lr.Label, err)
		}
		if err := obs.WriteMergedPrometheusNaive(&naive, "", []obs.LabeledRegistry{{Registry: lr.Registry}}); err != nil {
			t.Fatalf("naive %s: %v", lr.Label, err)
		}
		if !bytes.Equal(fast.Bytes(), naive.Bytes()) {
			t.Fatalf("tenant %s: WritePrometheus differs from naive renderer:\n%s",
				lr.Label, firstDiff(fast.String(), naive.String()))
		}
		if i == 0 {
			if p, err := obs.ParseText(&fast); err != nil || p.Sum(obs.MetricFaultsInjected) == 0 {
				t.Fatalf("faulted tenant exposition: parse error %v or no injected faults", err)
			}
		}
	}
}

// firstDiff returns the region around the first differing byte, for
// readable failures.
func firstDiff(a, b string) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 80
			if lo < 0 {
				lo = 0
			}
			return fmt.Sprintf("first diff at byte %d:\nfast:  %q\nnaive: %q", i, a[lo:min(i+80, len(a))], b[lo:min(i+80, len(b))])
		}
	}
	return fmt.Sprintf("length mismatch: %d vs %d", len(a), len(b))
}

// TestMergedLabelNameMismatch is the regression for the label-set
// consistency check: two registries sharing a family name with the SAME
// label count but DIFFERENT label names must refuse to merge — the old
// count-only check let them through.
func TestMergedLabelNameMismatch(t *testing.T) {
	a := obs.NewRegistry()
	a.NewCounterVec("kwo_shared_total", "shared", "warehouse").With("WH").Inc()
	b := obs.NewRegistry()
	b.NewCounterVec("kwo_shared_total", "shared", "kind").With("resize").Inc()
	regs := []obs.LabeledRegistry{{Label: "t00", Registry: a}, {Label: "t01", Registry: b}}
	err := obs.WriteMergedPrometheus(io.Discard, "tenant", regs)
	if err == nil {
		t.Fatal("same-count different-name label sets merged without error")
	}
	if !strings.Contains(err.Error(), "warehouse") || !strings.Contains(err.Error(), "kind") {
		t.Errorf("error should name both label sets, got: %v", err)
	}
	if naiveErr := obs.WriteMergedPrometheusNaive(io.Discard, "tenant", regs); naiveErr == nil {
		t.Error("naive reference renderer missed the label-name mismatch")
	}
}

// TestMergedTypeMismatch keeps the pre-existing type check intact.
func TestMergedTypeMismatch(t *testing.T) {
	a := obs.NewRegistry()
	a.NewCounterVec("kwo_metric_total", "as counter").With().Inc()
	b := obs.NewRegistry()
	b.NewGaugeVec("kwo_metric_total", "as gauge").With().Set(1)
	err := obs.WriteMergedPrometheus(io.Discard, "tenant", []obs.LabeledRegistry{
		{Label: "t00", Registry: a}, {Label: "t01", Registry: b}})
	if err == nil {
		t.Fatal("type mismatch merged without error")
	}
}

// TestMergedScrapeAllocsFlat is the streaming renderer's allocation
// regression: steady-state allocations are O(families), independent of
// how many series each family carries — the exposition is never
// materialized. Catches any reintroduction of per-series string
// building or whole-output buffering, in the merged scrape and in
// single-registry WritePrometheus alike.
func TestMergedScrapeAllocsFlat(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	allocs := func(write func() error) float64 {
		// Warm the pooled scratch so growth to high-water marks is not
		// billed to the steady state.
		if err := write(); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if err := write(); err != nil {
				t.Fatal(err)
			}
		})
	}
	measure := func(regs []obs.LabeledRegistry) float64 {
		return allocs(func() error { return obs.WriteMergedPrometheus(io.Discard, "tenant", regs) })
	}
	small := measure(mergeTestRegs(4, 4))
	big := measure(mergeTestRegs(4, 256)) // 64× the series, same families
	if big > small*1.5+16 {
		t.Errorf("allocations scale with series count: %0.f allocs at 256 series/registry vs %0.f at 4",
			big, small)
	}
	wide := measure(mergeTestRegs(64, 16)) // 16× the registries
	perRegistry := (wide - small) / 60
	if perRegistry > 8 {
		t.Errorf("allocations grow %.1f/registry; streaming scrape should add O(1) per source (small=%0.f wide=%0.f)",
			perRegistry, small, wide)
	}

	single := func(series int) float64 {
		r := mergeTestRegistry(1, series)
		return allocs(func() error { return r.WritePrometheus(io.Discard) })
	}
	if s, b := single(4), single(256); b > s*1.5+16 {
		t.Errorf("WritePrometheus allocations scale with series count: %0.f at 256 series vs %0.f at 4", b, s)
	}
}

// scrapeRegs provisions a 1024-tenant fleet once (shared across the
// scrape benchmarks — provisioning dwarfs the scrape under test) and
// runs two one-minute epochs so every registry carries live series.
var (
	scrapeOnce sync.Once
	scrapeRegs []obs.LabeledRegistry
)

func scrapeFleetRegs(b *testing.B) []obs.LabeledRegistry {
	scrapeOnce.Do(func() {
		cfg := lightFleet(1024, 2)
		cfg.Workers = 8
		cfg.EpochLen = time.Minute
		f, err := fleet.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close()
		if _, err := f.Run(); err != nil {
			b.Fatal(err)
		}
		scrapeRegs = f.Registries()
	})
	return scrapeRegs
}

// BenchmarkMergedScrape1024 measures one merged /metrics render across
// 1024 live tenant registries through the streaming writer; the Naive
// companion is the oracle that materializes the whole exposition.
// allocs/op is the headline: streaming stays O(families), naive scales
// with total series.
func BenchmarkMergedScrape1024(b *testing.B) {
	benchScrape(b, obs.WriteMergedPrometheus)
}

func BenchmarkMergedScrape1024Naive(b *testing.B) {
	benchScrape(b, obs.WriteMergedPrometheusNaive)
}

func benchScrape(b *testing.B, write func(io.Writer, string, []obs.LabeledRegistry) error) {
	regs := scrapeFleetRegs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := write(io.Discard, fleet.TenantLabel, regs); err != nil {
			b.Fatal(err)
		}
	}
}
