package main

// The portal's single-tenant -once view: the text dashboard of §4.1
// over the two-warehouse simulation the API mode serves, advanced a
// fixed simulated week past attach. Per warehouse it shows the KPI
// report, the daily series and the last day's hourly view, then the
// invoices, the cumulative savings, the non-zero samples of the
// metrics exposition and the tail of the event bus.
//
// Rendering is a pure function of the collected onceView, so the
// golden test pins the view byte for byte.

import (
	"fmt"
	"strings"
	"time"

	"kwo"
)

// onceSpan is how far -once advances the simulation past attach.
const onceSpan = 7 * 24 * time.Hour

// onceView is everything the -once view shows, read from the
// simulation after the fixed week.
type onceView struct {
	Warehouses []warehouseView
	Invoices   []kwo.Invoice
	Savings    float64
	Metrics    string // the registry's Prometheus exposition
	Events     []kwo.ObsEvent
}

// warehouseView is one warehouse's part of the view.
type warehouseView struct {
	Report kwo.Report // from attach to now
	Daily  []kwo.DayKPI
	Hourly []kwo.HourKPI // the last simulated day
}

// collectOnceView reads the view from the simulation as it stands.
func collectOnceView(sim *kwo.Simulation, opt *kwo.Optimizer) (*onceView, error) {
	attach := sim.Start().Add(portalHistory)
	v := &onceView{
		Invoices: opt.Invoices(),
		Savings:  opt.TotalSavings(),
		Events:   opt.Obs().Bus.Recent(12),
	}
	days := int(sim.Now().Sub(sim.Start()) / (24 * time.Hour))
	for _, name := range portalWarehouses {
		var w warehouseView
		var err error
		if w.Report, err = opt.Report(name, attach, sim.Now()); err != nil {
			return nil, err
		}
		if w.Daily, err = opt.DailySeries(name, sim.Start(), days); err != nil {
			return nil, err
		}
		if w.Hourly, err = opt.HourlySeries(name, sim.Now().Add(-24*time.Hour), 24); err != nil {
			return nil, err
		}
		v.Warehouses = append(v.Warehouses, w)
	}
	var metrics strings.Builder
	if err := opt.Obs().Registry.WritePrometheus(&metrics); err != nil {
		return nil, err
	}
	v.Metrics = metrics.String()
	return v, nil
}

// renderOnceView renders the single-tenant dashboard. Pure: the output
// is a function of the view alone.
func renderOnceView(v *onceView) string {
	var b strings.Builder
	b.WriteString("KWO DASHBOARD\n")
	for _, w := range v.Warehouses {
		b.WriteString("\n")
		b.WriteString(w.Report.String())
		fmt.Fprintf(&b, "\n%s daily spend and latency\n", w.Report.Warehouse)
		b.WriteString("  day   credits    queries   avg lat    p99        queue p99\n")
		for i, d := range w.Daily {
			marker := ""
			if !d.Day.Before(w.Report.From) {
				marker = "  ← KWO"
			}
			fmt.Fprintf(&b, "  %-5d %-10.2f %-9d %-10v %-10v %v%s\n", i+1, d.Credits, d.Queries,
				d.AvgLatency.Round(10*time.Millisecond), d.P99Latency.Round(100*time.Millisecond),
				d.P99Queue.Round(10*time.Millisecond), marker)
		}
		fmt.Fprintf(&b, "\n%s last day, hourly\n", w.Report.Warehouse)
		b.WriteString("  hour  actual    overhead   est.savings\n")
		for i, h := range w.Hourly {
			fmt.Fprintf(&b, "  %-5d %-9.3f %-10.5f %.3f\n", i, h.ActualCredits, h.OverheadCredits, h.EstimatedSavings)
		}
	}
	b.WriteString("\nvalue-based pricing invoices\n")
	for _, inv := range v.Invoices {
		fmt.Fprintf(&b, "  %s\n", inv)
	}
	fmt.Fprintf(&b, "\ncumulative estimated savings: %.2f credits\n", v.Savings)
	b.WriteString("\nmetrics (non-zero samples)\n")
	for _, line := range strings.Split(v.Metrics, "\n") {
		if line != "" && !strings.HasPrefix(line, "#") && !strings.HasSuffix(line, " 0") {
			fmt.Fprintf(&b, "  %s\n", line)
		}
	}
	b.WriteString("\nrecent events\n")
	for _, ev := range v.Events {
		fmt.Fprintf(&b, "  %s\n", ev.String())
	}
	return b.String()
}
