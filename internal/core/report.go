package core

import (
	"fmt"
	"strings"
	"time"
)

// DayKPI is one row of the daily dashboard: credits spent and latency
// percentiles, the two series Figure 4 plots.
type DayKPI struct {
	Day        time.Time
	Credits    float64
	Queries    int
	AvgLatency time.Duration
	P99Latency time.Duration
	P99Queue   time.Duration
}

// HourKPI is one row of the hourly overhead dashboard (Figure 6):
// actual usage, KWO's own overhead, and estimated savings.
type HourKPI struct {
	Hour             time.Time
	ActualCredits    float64
	OverheadCredits  float64
	EstimatedSavings float64
}

// Report is the KPI summary for one warehouse over a period — what the
// web portal's dashboards show (§4.1).
type Report struct {
	Warehouse string
	From, To  time.Time

	ActualCredits    float64
	WithoutKeebo     float64
	Savings          float64
	SavingsPercent   float64
	OverheadCredits  float64
	CostPerQuery     float64
	Queries          int
	AvgLatency       time.Duration
	P99Latency       time.Duration
	AvgQueue         time.Duration
	P99Queue         time.Duration
	ActionsApplied   int
	Reverts          int
	ConstraintEvents int
}

// String renders the report as the text dashboard kwo-portal -once prints.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Warehouse %s  %s → %s\n", r.Warehouse,
		r.From.Format("2006-01-02 15:04"), r.To.Format("2006-01-02 15:04"))
	fmt.Fprintf(&b, "  spend:    %8.2f credits (without Keebo: %.2f)\n", r.ActualCredits, r.WithoutKeebo)
	fmt.Fprintf(&b, "  savings:  %8.2f credits (%.1f%%)\n", r.Savings, r.SavingsPercent)
	fmt.Fprintf(&b, "  overhead: %8.4f credits\n", r.OverheadCredits)
	fmt.Fprintf(&b, "  queries:  %8d (cost/query %.4f)\n", r.Queries, r.CostPerQuery)
	fmt.Fprintf(&b, "  latency:  avg %v  p99 %v  queue p99 %v\n", r.AvgLatency, r.P99Latency, r.P99Queue)
	fmt.Fprintf(&b, "  actions:  %d applied, %d reverts, %d constraint enforcements\n",
		r.ActionsApplied, r.Reverts, r.ConstraintEvents)
	return b.String()
}

// Report summarizes one warehouse over [from, to).
func (e *Engine) Report(warehouse string, from, to time.Time) (Report, error) {
	st, ok := e.models[warehouse]
	if !ok {
		return Report{}, fmt.Errorf("core: warehouse %s not attached", warehouse)
	}
	sm := st.sm
	now := e.sched.Now()
	wh, err := e.acct.Warehouse(warehouse)
	if err != nil {
		return Report{}, err
	}
	log := e.store.Log(warehouse)
	ws := log.Stats(from, to)
	rep := Report{
		Warehouse:        warehouse,
		From:             from,
		To:               to,
		ActualCredits:    wh.Meter().CreditsBetween(from, to, now),
		OverheadCredits:  e.acct.OverheadBetween(from, to),
		Queries:          ws.Queries,
		AvgLatency:       ws.AvgLatency,
		P99Latency:       ws.P99Latency,
		AvgQueue:         ws.AvgQueue,
		P99Queue:         ws.P99Queue,
		ActionsApplied:   sm.Applied,
		Reverts:          sm.Reverts,
		ConstraintEvents: sm.Constrained,
	}
	if ws.Queries > 0 {
		rep.CostPerQuery = rep.ActualCredits / float64(ws.Queries)
	}
	if sm.cost != nil {
		rep.WithoutKeebo = sm.cost.Replay(log, from, to).Credits
		rep.Savings = rep.WithoutKeebo - rep.ActualCredits
		if rep.Savings < 0 {
			rep.Savings = 0
		}
		if rep.WithoutKeebo > 0 {
			rep.SavingsPercent = 100 * rep.Savings / rep.WithoutKeebo
		}
	}
	return rep, nil
}

// DailySeries returns per-day KPIs for [from, from+days·24h) — the
// Figure 4 series.
func (e *Engine) DailySeries(warehouse string, from time.Time, days int) ([]DayKPI, error) {
	wh, err := e.acct.Warehouse(warehouse)
	if err != nil {
		return nil, err
	}
	log := e.store.Log(warehouse)
	now := e.sched.Now()
	out := make([]DayKPI, 0, days)
	for d := 0; d < days; d++ {
		s := from.Add(time.Duration(d) * 24 * time.Hour)
		t := s.Add(24 * time.Hour)
		ws := log.Stats(s, t)
		out = append(out, DayKPI{
			Day:        s,
			Credits:    wh.Meter().CreditsBetween(s, t, now),
			Queries:    ws.Queries,
			AvgLatency: ws.AvgLatency,
			P99Latency: ws.P99Latency,
			P99Queue:   ws.P99Queue,
		})
	}
	return out, nil
}

// HourlySeries returns per-hour actual usage, KWO overhead and
// estimated savings for [from, from+hours·1h) — the Figure 6 series.
func (e *Engine) HourlySeries(warehouse string, from time.Time, hours int) ([]HourKPI, error) {
	st, ok := e.models[warehouse]
	if !ok {
		return nil, fmt.Errorf("core: warehouse %s not attached", warehouse)
	}
	wh, err := e.acct.Warehouse(warehouse)
	if err != nil {
		return nil, err
	}
	log := e.store.Log(warehouse)
	now := e.sched.Now()
	out := make([]HourKPI, 0, hours)
	for h := 0; h < hours; h++ {
		s := from.Add(time.Duration(h) * time.Hour)
		t := s.Add(time.Hour)
		kpi := HourKPI{
			Hour:            s,
			ActualCredits:   wh.Meter().CreditsBetween(s, t, now),
			OverheadCredits: e.acct.OverheadBetween(s, t),
		}
		if st.sm.cost != nil {
			without := st.sm.cost.Replay(log, s, t).Credits
			if d := without - kpi.ActualCredits; d > 0 {
				kpi.EstimatedSavings = d
			}
		}
		out = append(out, kpi)
	}
	return out, nil
}
