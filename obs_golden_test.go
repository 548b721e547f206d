package kwo_test

import (
	"bytes"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"kwo"
	"kwo/internal/obs"
)

// TestGoldenTraceInstrumented re-runs the quickstart golden scenario
// with the observability layer fully engaged — the event bus writing
// every event's JSON line to a buffer, plus mid-run scrapes of the ops
// endpoint — and asserts the telemetry snapshot is STILL
// byte-identical to the committed golden file. Observability is a pure
// observer: it draws no randomness, mutates no warehouse state, and
// must never move a byte of the trace. The golden file is the one
// TestGoldenTrace pins; this test must never require regenerating it.
func TestGoldenTraceInstrumented(t *testing.T) {
	sim := kwo.NewSimulation(42)
	var jsonl bytes.Buffer
	sim.Obs().Bus.SetOutput(&jsonl)

	scrape := func(stage string) {
		t.Helper()
		rec := httptest.NewRecorder()
		sim.ObsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		if rec.Code != 200 {
			t.Fatalf("%s: /metrics returned %d", stage, rec.Code)
		}
		if _, err := obs.ParseText(strings.NewReader(rec.Body.String())); err != nil {
			t.Fatalf("%s: /metrics is not valid Prometheus text: %v", stage, err)
		}
	}

	if _, err := sim.CreateWarehouse(kwo.WarehouseConfig{
		Name:        "BI_WH",
		Size:        kwo.SizeLarge,
		MinClusters: 1,
		MaxClusters: 2,
		Policy:      kwo.ScaleStandard,
		AutoSuspend: 10 * time.Minute,
		AutoResume:  true,
	}); err != nil {
		t.Fatal(err)
	}
	sim.AddWorkload("BI_WH", kwo.BIDashboards(30), 5*24*time.Hour)
	sim.RunFor(2 * 24 * time.Hour)
	scrape("pre-optimizer")

	opt := sim.NewOptimizer(kwo.DefaultOptions())
	if err := opt.Attach("BI_WH", kwo.Settings{Slider: kwo.Balanced}); err != nil {
		t.Fatal(err)
	}
	opt.Start()
	sim.RunFor(3 * 24 * time.Hour)
	scrape("post-run")
	opt.Stop()

	var buf bytes.Buffer
	if err := sim.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/quickstart.golden.jsonl")
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("instrumentation perturbed the golden trace: got %d bytes, want %d",
			buf.Len(), len(want))
	}

	// The run must actually have been observed: decisions happened, so
	// events flowed to the output and the bus agrees with the
	// kwo_obs_events_total counter.
	hub := sim.Obs()
	if hub.Bus.KindCount(obs.EventDecision) == 0 {
		t.Fatal("no decision events emitted over three optimized days")
	}
	if hub.Bus.KindCount(obs.EventInvoice) == 0 {
		t.Fatal("no invoice events emitted over three optimized days")
	}
	if got, want := hub.Registry.CounterSum(obs.MetricEvents), float64(hub.Bus.Total()); got != want {
		t.Fatalf("kwo_obs_events_total sums to %g, bus emitted %g", got, want)
	}
	if got, want := uint64(bytes.Count(jsonl.Bytes(), []byte{'\n'})), hub.Bus.Total(); got != want {
		t.Fatalf("bus output has %d lines, bus emitted %d", got, want)
	}
	if err := hub.Bus.Err(); err != nil {
		t.Fatalf("bus output: %v", err)
	}
}
