package kwo_test

import (
	"bytes"
	"flag"
	"os"
	"strconv"
	"testing"
	"time"

	"kwo"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata golden files")

// goldenRun is what one scenario leaves behind: its telemetry snapshot
// and the value-based-pricing invoices the optimizer issued.
type goldenRun struct {
	snapshot, invoices []byte
}

// finishRun stops the optimizer and captures the scenario's outputs.
func finishRun(t *testing.T, sim *kwo.Simulation, opt *kwo.Optimizer) goldenRun {
	t.Helper()
	opt.Stop()
	var buf bytes.Buffer
	if err := sim.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return goldenRun{snapshot: buf.Bytes(), invoices: invoiceLines(opt.Invoices())}
}

// invoiceLines writes one line per invoice: warehouse, RFC3339 period
// bounds, then actual, without-Keebo, savings, rate and charge in the
// shortest form that round-trips, so any change to the bill shows.
func invoiceLines(invs []kwo.Invoice) []byte {
	var b []byte
	for _, inv := range invs {
		b = append(b, inv.Warehouse...)
		b = append(b, ' ')
		b = inv.From.AppendFormat(b, time.RFC3339)
		b = append(b, ' ')
		b = inv.To.AppendFormat(b, time.RFC3339)
		for _, v := range []float64{inv.ActualCredits, inv.EstimatedWithoutKeebo,
			inv.Savings, inv.Rate, inv.Charge} {
			b = append(b, ' ')
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
		b = append(b, '\n')
	}
	return b
}

// quickstartRun reproduces the examples/quickstart scenario — an
// oversized BI warehouse with unoptimized history, then optimized under
// the Balanced slider — compressed to two days of history plus three
// optimized days so the golden file stays small and the test fast.
func quickstartRun(t *testing.T) goldenRun {
	t.Helper()
	sim := kwo.NewSimulation(42)
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

	opt := sim.NewOptimizer(kwo.DefaultOptions())
	if err := opt.Attach("BI_WH", kwo.Settings{Slider: kwo.Balanced}); err != nil {
		t.Fatal(err)
	}
	opt.Start()
	sim.RunFor(3 * 24 * time.Hour)
	return finishRun(t, sim, opt)
}

// multiWarehouseRun reproduces the examples/multi-warehouse
// scenario — three very different warehouses (dashboards, pipelines,
// ad-hoc analysis) under one optimizer, each with its own slider —
// compressed to one day of history plus two optimized days.
func multiWarehouseRun(t *testing.T) goldenRun {
	t.Helper()
	sim := kwo.NewSimulation(21)
	type spec struct {
		cfg    kwo.WarehouseConfig
		gen    kwo.Generator
		slider kwo.Slider
	}
	specs := []spec{
		{
			cfg: kwo.WarehouseConfig{Name: "BI_WH", Size: kwo.SizeLarge,
				MinClusters: 1, MaxClusters: 3,
				AutoSuspend: 10 * time.Minute, AutoResume: true},
			gen:    kwo.BIDashboards(30),
			slider: kwo.GoodPerformance,
		},
		{
			cfg: kwo.WarehouseConfig{Name: "ETL_WH", Size: kwo.SizeMedium,
				MinClusters: 1, MaxClusters: 1,
				AutoSuspend: 10 * time.Minute, AutoResume: true},
			gen:    kwo.ETLPipeline(time.Hour, 4),
			slider: kwo.LowCost,
		},
		{
			cfg: kwo.WarehouseConfig{Name: "ADHOC_WH", Size: kwo.SizeMedium,
				MinClusters: 1, MaxClusters: 2,
				AutoSuspend: 15 * time.Minute, AutoResume: true},
			gen:    kwo.AdHocAnalytics(6),
			slider: kwo.Balanced,
		},
	}
	for _, s := range specs {
		if _, err := sim.CreateWarehouse(s.cfg); err != nil {
			t.Fatal(err)
		}
		sim.AddWorkload(s.cfg.Name, s.gen, 3*24*time.Hour)
	}
	sim.RunFor(24 * time.Hour)

	opt := sim.NewOptimizer(kwo.DefaultOptions())
	for _, s := range specs {
		if err := opt.Attach(s.cfg.Name, kwo.Settings{Slider: s.slider}); err != nil {
			t.Fatal(err)
		}
	}
	opt.Start()
	sim.RunFor(2 * 24 * time.Hour)
	return finishRun(t, sim, opt)
}

// checkGolden asserts two same-seed runs agree and match the committed
// snapshot and invoice golden files; -update regenerates both.
func checkGolden(t *testing.T, snapshotPath, invoicesPath string, run func(*testing.T) goldenRun) {
	t.Helper()
	first := run(t)
	second := run(t)
	if !bytes.Equal(first.snapshot, second.snapshot) {
		t.Fatalf("same seed produced different snapshots: %d vs %d bytes",
			len(first.snapshot), len(second.snapshot))
	}
	if !bytes.Equal(first.invoices, second.invoices) {
		t.Fatalf("same seed produced different invoices:\n%s\nvs\n%s",
			first.invoices, second.invoices)
	}
	checkGoldenFile(t, snapshotPath, first.snapshot)
	checkGoldenFile(t, invoicesPath, first.invoices)
}

// checkGoldenFile compares got with the committed golden file, or
// rewrites the file under -update.
func checkGoldenFile(t *testing.T, goldenPath string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenPath, len(got))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create it): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output diverged from %s: got %d bytes, want %d; "+
			"if the simulator or engine changed intentionally, rerun with -update",
			goldenPath, len(got), len(want))
	}
}

// TestGoldenTrace runs the quickstart scenario twice with the same seed
// and asserts both runs produce byte-identical telemetry and invoices,
// which also match the committed golden files. Regenerate with:
//
//	go test . -run TestGoldenTrace -update
func TestGoldenTrace(t *testing.T) {
	checkGolden(t, "testdata/quickstart.golden.jsonl",
		"testdata/quickstart.invoices.golden.txt", quickstartRun)
}

// TestGoldenTraceMultiWarehouse pins the multi-warehouse scenario the
// same way: one optimizer over three heterogeneous warehouses must
// replay and bill byte-identically. Regenerate with:
//
//	go test . -run TestGoldenTraceMultiWarehouse -update
func TestGoldenTraceMultiWarehouse(t *testing.T) {
	checkGolden(t, "testdata/multiwarehouse.golden.jsonl",
		"testdata/multiwarehouse.invoices.golden.txt", multiWarehouseRun)
}
