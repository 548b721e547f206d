package kwo_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"kwo"
)

// These tests exercise the library exactly as a downstream user would:
// only the public kwo package.

func newBIScenario(t *testing.T, seed int64) (*kwo.Simulation, *kwo.Warehouse) {
	t.Helper()
	sim := kwo.NewSimulation(seed)
	wh, err := sim.CreateWarehouse(kwo.WarehouseConfig{
		Name: "BI_WH", Size: kwo.SizeLarge, MinClusters: 1, MaxClusters: 2,
		Policy: kwo.ScaleStandard, AutoSuspend: 10 * time.Minute, AutoResume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.AddWorkload("BI_WH", kwo.BIDashboards(60), 14*24*time.Hour)
	return sim, wh
}

func TestPublicAPIEndToEnd(t *testing.T) {
	sim, wh := newBIScenario(t, 1)

	// Three days of history before onboarding.
	sim.RunFor(3 * 24 * time.Hour)
	preDaily := wh.CreditsBetween(sim.Start(), sim.Now()) / 3
	if preDaily <= 0 {
		t.Fatal("no pre-KWO spend")
	}

	opt := sim.NewOptimizer(kwo.DefaultOptions())
	if err := opt.Attach("BI_WH", kwo.Settings{Slider: kwo.Balanced}); err != nil {
		t.Fatal(err)
	}
	opt.Start()
	attach := sim.Now()
	sim.RunFor(5 * 24 * time.Hour)

	steadyFrom := attach.Add(2 * 24 * time.Hour)
	kwoDaily := wh.CreditsBetween(steadyFrom, sim.Now()) / 3
	if kwoDaily >= preDaily {
		t.Fatalf("no savings through public API: pre %.1f vs with %.1f", preDaily, kwoDaily)
	}

	rep, err := opt.Report("BI_WH", attach, sim.Now())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Queries == 0 || rep.ActualCredits <= 0 || rep.WithoutKeebo <= 0 {
		t.Fatalf("report incomplete: %+v", rep)
	}
	if rep.Savings <= 0 {
		t.Fatal("report shows no savings")
	}
	days, err := opt.DailySeries("BI_WH", sim.Start(), 8)
	if err != nil || len(days) != 8 {
		t.Fatalf("daily series: %v, %d rows", err, len(days))
	}
	if len(opt.Invoices()) == 0 || opt.TotalSavings() <= 0 {
		t.Fatal("no invoices through public API")
	}
}

func TestPublicAPISliderAndConstraints(t *testing.T) {
	sim, _ := newBIScenario(t, 2)
	sim.RunFor(24 * time.Hour)
	opt := sim.NewOptimizer(kwo.DefaultOptions())
	minSize := kwo.SizeMedium
	settings := kwo.Settings{
		Slider:      kwo.LowCost,
		Constraints: kwo.Constraints{{Name: "floor", MinSize: &minSize}},
	}
	if err := opt.Attach("BI_WH", settings); err != nil {
		t.Fatal(err)
	}
	opt.Start()
	sim.RunFor(3 * 24 * time.Hour)
	wh, _ := sim.Warehouse("BI_WH")
	if wh.Config().Size < kwo.SizeMedium {
		t.Fatalf("constraint violated via public API: size %v", wh.Config().Size)
	}
	if err := opt.SetSlider("BI_WH", kwo.BestPerformance); err != nil {
		t.Fatal(err)
	}
	if err := opt.SetSlider("BI_WH", kwo.Slider(9)); err == nil {
		t.Fatal("invalid slider accepted")
	}
	if err := opt.SetConstraints("BI_WH", kwo.Constraints{{Name: "bad", StartMinute: -1}}); err == nil {
		t.Fatal("invalid constraints accepted")
	}
	if err := opt.SetConstraints("BI_WH", nil); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIExternalChange(t *testing.T) {
	sim, _ := newBIScenario(t, 3)
	sim.RunFor(24 * time.Hour)
	opt := sim.NewOptimizer(kwo.DefaultOptions())
	opt.Attach("BI_WH", kwo.Settings{Slider: kwo.Balanced})
	opt.Start()
	sim.RunFor(24 * time.Hour)

	// A DBA intervenes.
	size := kwo.Size2XLarge
	if err := sim.Alter("BI_WH", kwo.Alteration{Size: &size}, "dba-jane"); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(2 * time.Hour)
	paused, err := opt.Paused("BI_WH")
	if err != nil {
		t.Fatal(err)
	}
	if !paused {
		t.Fatal("external change did not pause optimization")
	}
	if err := opt.ResumeOptimization("BI_WH"); err != nil {
		t.Fatal(err)
	}
	paused, _ = opt.Paused("BI_WH")
	if paused {
		t.Fatal("resume did not clear pause")
	}
}

func TestPublicAPIWarehouseHandles(t *testing.T) {
	sim := kwo.NewSimulation(4)
	if _, err := sim.Warehouse("NOPE"); err == nil {
		t.Fatal("missing warehouse returned")
	}
	wh, err := sim.CreateWarehouse(kwo.WarehouseConfig{
		Name: "W", Size: kwo.SizeXSmall, MinClusters: 1, MaxClusters: 1,
		AutoSuspend: time.Minute, AutoResume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if wh.Name() != "W" || !wh.Running() || wh.ActiveClusters() != 1 {
		t.Fatal("fresh warehouse state wrong")
	}
	if err := sim.Submit("W", kwo.Query{Work: 30, ScaleExp: 1}); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(10 * time.Minute)
	if wh.Running() {
		t.Fatal("warehouse did not auto-suspend")
	}
	if wh.TotalCredits() <= 0 {
		t.Fatal("no credits billed")
	}
	hourly := wh.Hourly(sim.Start(), sim.Start().Add(time.Hour))
	if len(hourly) != 1 || hourly[0].Credits <= 0 {
		t.Fatalf("hourly rows = %+v", hourly)
	}
	daily := wh.DailyCredits(sim.Start(), 1)
	if len(daily) != 1 || daily[0] <= 0 {
		t.Fatalf("daily rows = %v", daily)
	}
	stats := sim.Stats("W", sim.Start(), sim.Now())
	if stats.Queries != 1 {
		t.Fatalf("stats queries = %d", stats.Queries)
	}
	if sim.TotalCredits() != wh.TotalCredits() {
		t.Fatal("account/warehouse credit mismatch")
	}
}

func TestPublicAPICustomPoolAndWorkloads(t *testing.T) {
	pool := kwo.NewPool([]kwo.Template{
		{Name: "rpt", WorkMean: 3, WorkSigma: 0.2, ScaleExp: 0.8, ColdFactor: 2, BytesMean: 1 << 20},
	}, 0)
	sim := kwo.NewSimulation(5)
	sim.CreateWarehouse(kwo.WarehouseConfig{
		Name: "W", Size: kwo.SizeSmall, MinClusters: 1, MaxClusters: 1,
		AutoSuspend: 5 * time.Minute, AutoResume: true,
	})
	n := sim.AddWorkload("W", kwo.CustomBI(pool, 50, 0.2), 24*time.Hour)
	if n == 0 {
		t.Fatal("custom BI scheduled nothing")
	}
	n = sim.AddWorkload("W", kwo.CustomETL(pool, time.Hour, 2, time.Minute), 24*time.Hour)
	if n != 48 {
		t.Fatalf("custom ETL scheduled %d, want 48", n)
	}
	n = sim.AddWorkload("W", kwo.LoadSpike(sim.Now().Add(time.Hour), 25, time.Minute), 24*time.Hour)
	if n != 25 {
		t.Fatalf("spike scheduled %d, want 25", n)
	}
	n = sim.AddWorkload("W", kwo.MixedWorkload(kwo.AdHocAnalytics(5), kwo.ETLPipeline(2*time.Hour, 2)), 24*time.Hour)
	if n == 0 {
		t.Fatal("mixed workload scheduled nothing")
	}
	sim.RunFor(26 * time.Hour)
	if sim.TotalCredits() <= 0 {
		t.Fatal("nothing billed")
	}
}

func TestPublicAPIAnalyses(t *testing.T) {
	sim := kwo.NewSimulation(8)
	for _, name := range []string{"A", "B"} {
		if _, err := sim.CreateWarehouse(kwo.WarehouseConfig{
			Name: name, Size: kwo.SizeSmall, MinClusters: 1, MaxClusters: 2,
			AutoSuspend: 10 * time.Minute, AutoResume: true,
		}); err != nil {
			t.Fatal(err)
		}
		sim.AddWorkload(name, kwo.BIDashboards(8), 2*24*time.Hour)
	}
	sim.RunFor(2 * 24 * time.Hour)

	rec, err := sim.AnalyzeConsolidation([]string{"A", "B"}, sim.Start(), sim.Now())
	if err != nil {
		t.Fatal(err)
	}
	if rec.CurrentCredits <= 0 {
		t.Fatalf("consolidation analysis empty: %+v", rec)
	}
	if len(rec.Warehouses) != 2 {
		t.Fatalf("warehouses = %v", rec.Warehouses)
	}

	bal, err := sim.AnalyzeLoadBalance([]string{"A", "B"}, sim.Start(), sim.Now())
	if err != nil {
		t.Fatal(err)
	}
	if !bal.Balanced() {
		t.Fatalf("quiet pair unbalanced: %+v", bal.Moves)
	}
	if _, err := sim.AnalyzeConsolidation([]string{"A", "NOPE"}, sim.Start(), sim.Now()); err == nil {
		t.Fatal("unknown warehouse accepted")
	}
	if _, err := sim.AnalyzeLoadBalance([]string{"A"}, sim.Start(), sim.Now()); err == nil {
		t.Fatal("single-warehouse balance accepted")
	}
}

func TestPublicAPITraces(t *testing.T) {
	var buf bytes.Buffer
	from := kwo.NewSimulation(1).Start()
	n, err := kwo.GenerateTrace(&buf, kwo.BIDashboards(40), from, from.Add(24*time.Hour), 3)
	if err != nil || n == 0 {
		t.Fatalf("generate: n=%d err=%v", n, err)
	}
	arr, err := kwo.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil || len(arr) != n {
		t.Fatalf("read: %d/%d err=%v", len(arr), n, err)
	}
	sim := kwo.NewSimulation(2)
	sim.CreateWarehouse(kwo.WarehouseConfig{Name: "W", Size: kwo.SizeSmall,
		MinClusters: 1, MaxClusters: 1, AutoSuspend: 5 * time.Minute, AutoResume: true})
	got, err := sim.AddTraceWorkload("W", bytes.NewReader(buf.Bytes()))
	if err != nil || got != n {
		t.Fatalf("replay: %d/%d err=%v", got, n, err)
	}
	sim.RunFor(26 * time.Hour)
	if stats := sim.Stats("W", sim.Start(), sim.Now()); stats.Queries != n {
		t.Fatalf("completed %d of %d", stats.Queries, n)
	}
}

func TestPublicAPIPortal(t *testing.T) {
	sim := kwo.NewSimulation(6)
	sim.CreateWarehouse(kwo.WarehouseConfig{Name: "W", Size: kwo.SizeSmall,
		MinClusters: 1, MaxClusters: 1, AutoSuspend: 5 * time.Minute, AutoResume: true})
	sim.AddWorkload("W", kwo.BIDashboards(20), 24*time.Hour)
	sim.RunFor(24 * time.Hour)
	opt := sim.NewOptimizer(kwo.DefaultOptions())
	opt.Attach("W", kwo.Settings{Slider: kwo.Balanced})

	srv := httptest.NewServer(opt.PortalWithAdvance(nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/api/v1/warehouses/W")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("portal status %d", resp.StatusCode)
	}
	var info map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info["name"] != "W" || info["optimization_attached"] != true {
		t.Fatalf("portal info = %v", info)
	}

	advanced := false
	srv2 := httptest.NewServer(opt.PortalWithAdvance(func() { advanced = true }))
	defer srv2.Close()
	http.Get(srv2.URL + "/api/v1/status")
	if !advanced {
		t.Fatal("advance hook not called")
	}
}
