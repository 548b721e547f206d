package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"kwo/internal/actuator"
	"kwo/internal/cdw"
	"kwo/internal/obs"
	"kwo/internal/policy"
	"kwo/internal/simclock"
	"kwo/internal/workload"
)

// faultEngine builds an idle single-warehouse engine (no workload) so
// fault-path behaviour can be observed without smart-model noise.
func faultEngine(t *testing.T, opts Options, settings WarehouseSettings) (*simclock.Scheduler, *cdw.Account, *Engine, *SmartModel) {
	t.Helper()
	sched := simclock.NewScheduler(3)
	acct := cdw.NewAccount(sched, cdw.DefaultSimParams())
	engine := NewEngine(acct, opts)
	if _, err := acct.CreateWarehouse(cdw.Config{
		Name: "W", Size: cdw.SizeMedium, MinClusters: 1, MaxClusters: 2,
		Policy: cdw.ScaleStandard, AutoSuspend: 5 * time.Minute, AutoResume: true,
	}); err != nil {
		t.Fatal(err)
	}
	sm, err := engine.Attach("W", settings)
	if err != nil {
		t.Fatal(err)
	}
	engine.Start()
	return sched, acct, engine, sm
}

// TestUntrainedBillZeroSavingsInvoice covers the billing gap: a period
// closing before the cost model has trained must still produce an
// invoice (zero savings), so invoices tile the time axis from attach.
func TestUntrainedBillZeroSavingsInvoice(t *testing.T) {
	opts := testOptions()
	opts.BillEvery = 6 * time.Hour
	sched, _, engine, sm := faultEngine(t, opts, DefaultSettings())
	sched.RunUntil(t0.Add(25 * time.Hour))

	if sm.CostModel() != nil {
		t.Fatal("cost model trained with no queries; test premise broken")
	}
	invs := engine.Ledger().Invoices()
	if len(invs) != 4 {
		t.Fatalf("invoices = %d, want 4 (every 6h over 25h)", len(invs))
	}
	if !invs[0].From.Equal(t0) {
		t.Fatalf("first invoice starts %v, want attach time %v", invs[0].From, t0)
	}
	for i, inv := range invs {
		if inv.EstimatedWithoutKeebo != inv.ActualCredits {
			t.Fatalf("invoice %d: without=%v actual=%v, want equal (no counterfactual)",
				i, inv.EstimatedWithoutKeebo, inv.ActualCredits)
		}
		if inv.Savings != 0 || inv.Charge != 0 {
			t.Fatalf("invoice %d claims savings %v charge %v with no trained model",
				i, inv.Savings, inv.Charge)
		}
		if i > 0 && !inv.From.Equal(invs[i-1].To) {
			t.Fatalf("invoice gap: %v ends %v, next starts %v", i-1, invs[i-1].To, inv.From)
		}
	}
}

// TestEnforcementFailureSurfacesAndRetries covers the enforcement-path
// fix: a failed constraint enforcement lands in the structured failure
// log, and the engine re-issues the enforcement on following ticks until
// the warehouse complies. It also pins the decision events across the
// switch to the degraded path: the +30m tick finds a retry pending, so
// its enforcement carries mode=degraded between reason and statement.
func TestEnforcementFailureSurfacesAndRetries(t *testing.T) {
	settings := DefaultSettings()
	settings.Constraints = policy.Constraints{
		{Name: "pin-large", EnforceSize: cdw.SizeP(cdw.SizeLarge)},
	}
	opts := testOptions() // DecideEvery 10m
	sched, acct, engine, sm := faultEngine(t, opts, settings)
	// Every ALTER fails for the first 25 minutes: the first two
	// enforcement ticks (at +10m and +20m) fail and retry.
	acct.SetFaults(cdw.FaultPlan{
		AlterOutages: []cdw.FaultWindow{{From: t0, To: t0.Add(25 * time.Minute)}},
	})
	sched.RunUntil(t0.Add(45 * time.Minute))

	wh, _ := acct.Warehouse("W")
	if wh.Config().Size != cdw.SizeLarge {
		t.Fatalf("size = %v, want enforcement to land once the outage ends", wh.Config().Size)
	}
	if got := sm.Expected().Size; got != cdw.SizeLarge {
		t.Fatalf("expected config size = %v, want reconciled to Large", got)
	}
	// The failures are visible, attributed to enforcement, and spread
	// over more than one operation (re-issued on a later tick rather
	// than silently dropped).
	ops := map[uint64]bool{}
	transient := 0
	for _, f := range engine.Actuator().Failures() {
		if f.Kind == actuator.FailTransient && f.Reason == "constraint" {
			transient++
			ops[f.OpID] = true
		}
	}
	if transient == 0 {
		t.Fatal("failed enforcement left no transient rows in the failure log")
	}
	if len(ops) < 2 {
		t.Fatalf("enforcement ops with failures = %d, want ≥2 (re-issued next tick)", len(ops))
	}

	var got []string
	for _, ev := range engine.Obs().Bus.Recent(obs.DefaultRingSize) {
		if ev.Kind == obs.EventDecision {
			got = append(got, ev.JSON())
		}
	}
	want := []string{
		`{"seq":1,"time":"2023-01-02T00:10:00Z","kind":"decision","warehouse":"W","attrs":{"kind":"enforce","reason":"constraint","statement":"ALTER WAREHOUSE SET WAREHOUSE_SIZE=Large"}}`,
		`{"seq":6,"time":"2023-01-02T00:20:00Z","kind":"decision","warehouse":"W","attrs":{"kind":"enforce","reason":"constraint","statement":"ALTER WAREHOUSE SET WAREHOUSE_SIZE=Large"}}`,
		`{"seq":13,"time":"2023-01-02T00:30:00Z","kind":"decision","warehouse":"W","attrs":{"kind":"enforce","reason":"constraint","mode":"degraded","statement":"ALTER WAREHOUSE SET WAREHOUSE_SIZE=Large"}}`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("decision events:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestDegradedModeEntryAndRecovery drives the engine blind with a
// billing outage: after three consecutive failed pulls it must enter
// degraded mode, and recover once the metering view returns.
func TestDegradedModeEntryAndRecovery(t *testing.T) {
	opts := testOptions() // DecideEvery 10m
	sched, acct, engine, _ := faultEngine(t, opts, DefaultSettings())
	acct.SetFaults(cdw.FaultPlan{
		BillingOutages: []cdw.FaultWindow{{From: t0, To: t0.Add(2 * time.Hour)}},
	})

	sched.RunUntil(t0.Add(90 * time.Minute))
	h, err := engine.Health("W")
	if err != nil {
		t.Fatal(err)
	}
	if !h.Degraded {
		t.Fatalf("engine not degraded after %d failed pulls", h.IngestFailures)
	}
	if h.IngestFailures < 3 || h.DegradedTicks < 1 {
		t.Fatalf("health = %+v, want ≥3 ingest failures and ≥1 degraded tick", h)
	}
	ingestRows := 0
	for _, f := range engine.Actuator().Failures() {
		if f.Kind == actuator.FailIngest {
			ingestRows++
		}
	}
	if ingestRows < 3 {
		t.Fatalf("ingest failures in the failure log = %d, want ≥3", ingestRows)
	}

	sched.RunUntil(t0.Add(3 * time.Hour))
	h, _ = engine.Health("W")
	if h.Degraded {
		t.Fatal("engine still degraded an hour after the outage ended")
	}
	if h.Recoveries != 1 || h.IngestFailures != 0 {
		t.Fatalf("health after recovery = %+v, want 1 recovery and 0 ingest failures", h)
	}
}

// TestFaultRunDeterminism is the satellite determinism check at the
// engine level: the same seed, workload, and fault plan must reproduce
// the telemetry snapshot, action/failure logs, invoices, and fault
// counts byte for byte.
func TestFaultRunDeterminism(t *testing.T) {
	run := func() string {
		sched := simclock.NewScheduler(11)
		acct := cdw.NewAccount(sched, cdw.DefaultSimParams())
		engine := NewEngine(acct, testOptions())
		cfg, gen := biWorkload()
		if _, err := acct.CreateWarehouse(cfg); err != nil {
			t.Fatal(err)
		}
		end := t0.Add(4 * 24 * time.Hour)
		arr := gen.Generate(t0, end, sched.Rand("workload"))
		workload.Drive(sched, acct, cfg.Name, arr)
		attach := t0.Add(24 * time.Hour)
		acct.SetFaults(cdw.FaultPlan{
			AlterFailRate:    0.3,
			AlterTimeoutRate: 0.2,
			BillingLag:       time.Hour,
			BillingOutages: []cdw.FaultWindow{
				{From: attach.Add(6 * time.Hour), To: attach.Add(8 * time.Hour)},
			},
			Until: end.Add(-2 * time.Hour),
		})
		sched.RunUntil(attach)
		if _, err := engine.Attach(cfg.Name, DefaultSettings()); err != nil {
			t.Fatal(err)
		}
		engine.Start()
		sched.RunUntil(end)

		var b strings.Builder
		snap, err := engine.Store().SnapshotBytes()
		if err != nil {
			t.Fatal(err)
		}
		b.Write(snap)
		for _, r := range engine.Actuator().Log() {
			fmt.Fprintf(&b, "%s op=%d/%d applied=%v %q %s %s\n",
				r.Time.Format(time.RFC3339), r.OpID, r.Attempt, r.Applied,
				r.Statement, r.Reason, r.Err)
		}
		for _, f := range engine.Actuator().Failures() {
			b.WriteString(f.String() + "\n")
		}
		for _, inv := range engine.Ledger().Invoices() {
			fmt.Fprintf(&b, "%+v\n", inv)
		}
		wh, _ := acct.Warehouse(cfg.Name)
		fmt.Fprintf(&b, "final=%+v faults=%+v", wh.Config(), acct.FaultCounts())
		return b.String()
	}
	a, b := run(), run()
	if a == "" {
		t.Fatal("empty fingerprint")
	}
	if a != b {
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				lo := i - 80
				if lo < 0 {
					lo = 0
				}
				t.Fatalf("same seed diverged at byte %d:\n--- first\n…%s\n--- second\n…%s",
					i, a[lo:i+80], b[lo:i+80])
			}
		}
		t.Fatalf("same seed diverged in length: %d vs %d bytes", len(a), len(b))
	}
}
