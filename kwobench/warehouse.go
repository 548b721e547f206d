package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"time"

	"kwo/internal/cdw"
	"kwo/internal/core"
	"kwo/internal/obs"
	"kwo/internal/simclock"
	"kwo/internal/telemetry"
	"kwo/internal/workload"
)

const (
	// whName is the optimized warehouse.
	whName = "BI_WH"
	// whPeakQPH is the dashboard traffic's weekday peak, queries/hour.
	whPeakQPH = 300
	// whHistory is the unoptimized history simulated during set-up.
	whHistory = 7 * 24 * time.Hour
	// whHours is how many optimized hours a lap measures.
	whHours = 24
	// whScrapes is how many /metrics scrapes follow each optimized hour.
	whScrapes = 48

	// Span names of an optimized hour's Scheduler.RunUntil, split by
	// whether a retrain ran in it.
	hourSpan        = "Scheduler.RunUntil"
	retrainHourSpan = "Scheduler.RunUntil/retrain"
)

// warehouseOptimize is the paper's per-warehouse product path: one
// oversized BI-dashboard warehouse, a week of unoptimized history, then
// the engine attached with production options and advanced one
// simulated hour at a time. It exercises rl/ml, costmodel, monitor,
// actuator and core, and no fleet code. After each hour the warehouse's
// own ops endpoint is scraped whScrapes times, as a Prometheus server
// scraping every 1.25 simulated minutes would. Reads after an hour of
// heavy allocation often overlap a GC cycle; 1152 of them per lap keep
// each lap's p99 from hanging on a handful of such overlaps.
var warehouseOptimize = scenario{
	name:    "warehouse-optimize",
	why:     "one BI warehouse optimized hour by hour with production options: the paper's product path through rl/ml, costmodel and core, no fleet code",
	tenants: 1,
	newLap: func(seed int64, tr *tracer) (lap, error) {
		return newWarehouseLap(seed, tr)
	},
}

type warehouseLap struct {
	sched  *simclock.Scheduler
	acct   *cdw.Account
	hub    *obs.Hub
	eng    *core.Engine
	cursor workload.Cursor
	attach time.Time
	ops    http.Handler
	scrape []read
}

func newWarehouseLap(seed int64, tr *tracer) (*warehouseLap, error) {
	sched := simclock.NewScheduler(seed)
	hub := obs.NewHub(sched.Now)
	acct := cdw.NewAccount(sched, cdw.DefaultSimParams())
	acct.SetObs(hub)
	store := telemetry.NewStore()
	store.SetObs(hub)
	acct.Subscribe(store)
	opts := core.DefaultOptions()
	opts.Obs = hub
	eng := core.NewEngineWithStore(acct, store, opts)
	if _, err := acct.CreateWarehouse(cdw.Config{
		Name: whName, Size: cdw.SizeLarge, MinClusters: 1, MaxClusters: 2,
		Policy: cdw.ScaleStandard, AutoSuspend: 10 * time.Minute, AutoResume: true,
	}); err != nil {
		return nil, err
	}
	bi, _, _ := workload.StandardPools()
	start := sched.Now()
	attach := start.Add(whHistory)
	gen := workload.BI{Pool: bi, PeakQPH: whPeakQPH, WeekendFactor: 0.2}
	l := &warehouseLap{sched: sched, acct: acct, hub: hub, eng: eng, attach: attach,
		cursor: workload.NewCursor(gen, start, attach.Add(whHours*time.Hour), sched.Rand("workload:bi")),
		ops:    obs.Handler(hub)}
	workload.Drive(sched, acct, whName, l.cursor.Next(attach))
	sched.RunUntil(attach)
	id := tr.begin("Engine.Attach")
	_, err := eng.Attach(whName, core.DefaultSettings())
	tr.end(id, 0)
	if err != nil {
		return nil, err
	}
	eng.Start()
	for i := 0; i < whScrapes; i++ {
		l.scrape = append(l.scrape, read{name: "GET /metrics", path: "/metrics", kind: bodyMetrics, digest: i == 0})
	}
	return l, nil
}

func (l *warehouseLap) units() int { return whHours }

func (l *warehouseLap) step(i int, tr *tracer) (float64, error) {
	end := l.attach.Add(time.Duration(i+1) * time.Hour)
	if _, dropped := workload.Drive(l.sched, l.acct, whName, l.cursor.Next(end)); dropped > 0 {
		return 0, fmt.Errorf("hour %d: %d arrivals before the clock", i, dropped)
	}
	id := tr.begin(hourSpan)
	trainings := l.hub.Registry.CounterSum(obs.MetricTrainings)
	l.sched.RunUntil(end)
	if tr != nil && l.hub.Registry.CounterSum(obs.MetricTrainings) > trainings {
		tr.spans[id].Name = retrainHourSpan
	}
	tr.end(id, 0)
	return 1, nil
}

func (l *warehouseLap) reads(int) []read { return l.scrape }

func (l *warehouseLap) handler() http.Handler { return l.ops }

func (l *warehouseLap) registries() []*obs.Registry { return []*obs.Registry{l.hub.Registry} }

func (l *warehouseLap) steps() int64 { return int64(l.sched.Steps()) }

// finish checks the optimized window: positive estimated savings,
// invoices that tile it, and one decision tick per DecideEvery.
func (l *warehouseLap) finish(c *checker) string {
	now := l.sched.Now()
	actual, without, err := l.eng.EstimateSavings(whName, l.attach, now)
	if err != nil {
		c.fail("estimate savings: %v", err)
	} else if err := checkSavings(actual, without); err != nil {
		c.fail("%v", err)
	}
	period, err := l.eng.BillingPeriodStart(whName)
	if err != nil {
		c.fail("billing period: %v", err)
	}
	invoices := l.eng.Ledger().Invoices()
	if err := checkInvoices(invoices, l.attach, period, now); err != nil {
		c.fail("%v", err)
	}
	perHour := int(time.Hour / l.eng.Options().DecideEvery)
	ticks := l.hub.Registry.CounterSum(obs.MetricDecisionTicks)
	if err := checkTicks(ticks, whHours*perHour); err != nil {
		c.fail("%v", err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "savings %v %v\n", actual, without)
	for _, inv := range invoices {
		fmt.Fprintf(h, "invoice %v\n", inv)
	}
	if wh, err := l.acct.Warehouse(whName); err == nil {
		fmt.Fprintf(h, "config %v\n", wh.Config())
	}
	if err := l.hub.Registry.WritePrometheus(h); err != nil {
		c.fail("digest: %v", err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (l *warehouseLap) close() { l.eng.Stop() }
