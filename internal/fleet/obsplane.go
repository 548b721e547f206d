package fleet

// The fleet observability plane: at every epoch boundary the fleet
// samples each tenant's recorder (per-tenant time series on the
// simulation clock) and folds the raw values into fleet-aggregate
// series. The plane also builds the JSON payloads behind the
// /fleet/kpis, /fleet/timeseries, and /fleet/slo endpoints.
//
// Everything here is deterministic: sampling happens sequentially in
// tenant-index order on the epoch barrier, timestamps come from the
// simulation clock, and series downsampling is a pure function of the
// append sequence — so the plane's output is byte-identical for any
// worker count, the same contract the rollup holds.

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"kwo/internal/obs"
)

// obsPlane holds the fleet-aggregate series and the epoch snapshot the
// ops endpoints read. Its mutex serializes epoch-boundary sampling
// (which appends to per-tenant and fleet series) against endpoint
// reads, so the plane is safe to scrape while the fleet advances.
type obsPlane struct {
	mu         sync.Mutex
	specs      []obs.SampleSpec
	objectives []obs.Objective
	budget     int
	fleet      []*obs.Series
	epoch      int
	now        time.Time
	done       bool

	// The alert plane. The tracker is the deterministic part — it runs
	// on the simulation clock, so a checkpoint replay rebuilds its log.
	// The sink is external delivery (JSONL file, operator pager); mute
	// turns delivery off during checkpoint replay so a resumed run does
	// not re-page for alerts already delivered before the crash.
	tracker  *obs.AlertTracker
	sink     obs.AlertSink
	mute     bool
	sinkErrs int
}

func newObsPlane(cfg Config, start time.Time) *obsPlane {
	p := &obsPlane{
		specs:      obs.FleetSpecs(),
		objectives: cfg.SLO.Objectives(),
		budget:     cfg.SeriesBudget,
		now:        start,
		tracker:    obs.NewAlertTracker(),
		sink:       cfg.AlertSink,
	}
	p.fleet = make([]*obs.Series, len(p.specs))
	for i, sp := range p.specs {
		p.fleet[i] = obs.NewSeries(sp.Name, sp.TimeAgg, cfg.SeriesBudget)
	}
	return p
}

// deliver sends one alert to the external sink (if any, and not muted
// by replay). Delivery failures are counted, never fatal: the tracker's
// log is the durable record, the sink is best-effort notification.
func (p *obsPlane) deliver(a obs.Alert) {
	if p.mute || p.sink == nil {
		return
	}
	if err := p.sink.Send(a); err != nil {
		p.sinkErrs++
	}
}

// record takes the epoch-boundary sample: every tenant's recorder in
// index order (each tenant appends to its own series and returns the
// raw per-spec values), then the cross-tenant aggregate under each
// spec's CrossAgg into the fleet series. Sequential by design — the
// sample is a pure reduction over already-advanced tenants, cheap next
// to an epoch of simulation, and a fixed order keeps float accumulation
// deterministic.
func (p *obsPlane) record(t time.Time, epoch int, tenants []*tenant) {
	p.mu.Lock()
	defer p.mu.Unlock()
	agg := make([]float64, len(p.specs))
	seen := false
	active := 0
	for _, tn := range tenants {
		if tn.quarantined() {
			// A quarantined tenant's series freeze at its last sample;
			// it drops out of the fleet aggregate. Announce the
			// quarantine exactly once, on the first barrier after it.
			if !tn.qAnnounced {
				tn.qAnnounced = true
				p.deliver(p.tracker.Quarantine(t, tn.qEpoch, tn.id, tn.qReason))
			}
			continue
		}
		vals := tn.rec.Sample(t)
		for i, v := range vals {
			switch p.specs[i].CrossAgg {
			case obs.AggMax:
				if !seen || v > agg[i] {
					agg[i] = v
				}
			case obs.AggMean, obs.AggSum:
				agg[i] += v
			default: // AggLast
				agg[i] = v
			}
		}
		seen = true
		active++
	}
	for i, s := range p.fleet {
		v := agg[i]
		if p.specs[i].CrossAgg == obs.AggMean && active > 0 {
			v /= float64(active)
		}
		s.Append(t, v)
	}
	// SLO burn alerting: evaluate each active tenant's objectives over
	// its freshly-sampled series and let the tracker dedupe transitions.
	// Sequential in index order under the plane lock, so alert sequence
	// numbers are deterministic for any worker count.
	for _, tn := range tenants {
		if tn.quarantined() {
			continue
		}
		verdicts := obs.Evaluate(p.objectives, tn.rec.Series)
		for _, a := range p.tracker.Observe(t, epoch, tn.id, verdicts) {
			p.deliver(a)
		}
	}
	p.epoch = epoch
	p.now = t
}

func (p *obsPlane) setDone() {
	p.mu.Lock()
	p.done = true
	p.mu.Unlock()
}

// TenantLive is one tenant's row in the live KPI payload.
type TenantLive struct {
	Tenant    string             `json:"tenant"`
	Index     int                `json:"index"`
	Seed      int64              `json:"seed"`
	Profile   string             `json:"profile"`
	Last      map[string]float64 `json:"last"`
	SLOPass   bool               `json:"slo_pass"`
	WorstBurn float64            `json:"slo_worst_burn"`
	Failed    []string           `json:"slo_failed,omitempty"`
	Replay    string             `json:"replay"`

	Quarantined      bool   `json:"quarantined,omitempty"`
	QuarantineEpoch  int    `json:"quarantine_epoch,omitempty"`
	QuarantineReason string `json:"quarantine_reason,omitempty"`
}

// LiveKPIs is the /fleet/kpis payload: fleet progress, the latest
// fleet-aggregate value of every recorded series, and one row per
// tenant with its latest values and live SLO verdict.
type LiveKPIs struct {
	Seed        int64              `json:"seed"`
	Tenants     int                `json:"tenants"`
	Epoch       int                `json:"epoch"`
	Epochs      int                `json:"epochs"`
	EpochLen    time.Duration      `json:"epoch_len_ns"`
	AttachEpoch int                `json:"attach_epoch"`
	Now         time.Time          `json:"now"`
	Done        bool               `json:"done"`
	Fleet       map[string]float64 `json:"fleet"`
	SLOFailing  int                `json:"slo_failing"`
	Quarantined int                `json:"quarantined,omitempty"`
	PerTenant   []TenantLive       `json:"per_tenant"`
}

// TenantSeries is one tenant's recorded series in the time-series
// payload.
type TenantSeries struct {
	Tenant string           `json:"tenant"`
	Series []obs.SeriesDump `json:"series"`
}

// FleetTimeSeries is the /fleet/timeseries payload: the fleet-aggregate
// series plus every tenant's, all bounded by the point budget.
type FleetTimeSeries struct {
	Budget    int              `json:"budget"`
	EpochLen  time.Duration    `json:"epoch_len_ns"`
	Epoch     int              `json:"epoch"`
	Fleet     []obs.SeriesDump `json:"fleet"`
	PerTenant []TenantSeries   `json:"per_tenant"`
}

// TenantSLO is one tenant's verdict set in the SLO payload.
type TenantSLO struct {
	Tenant    string        `json:"tenant"`
	Pass      bool          `json:"pass"`
	WorstBurn float64       `json:"worst_burn"`
	Verdicts  []obs.Verdict `json:"verdicts"`
	Replay    string        `json:"replay"`

	Quarantined      bool   `json:"quarantined,omitempty"`
	QuarantineEpoch  int    `json:"quarantine_epoch,omitempty"`
	QuarantineReason string `json:"quarantine_reason,omitempty"`
}

// AlertSummary is the alert plane's rollup inside the SLO payload: the
// deterministic tracker log's totals plus currently-firing objectives
// and the most recent alerts.
type AlertSummary struct {
	Total       uint64      `json:"total"`
	Breaches    int         `json:"breaches"`
	Recoveries  int         `json:"recoveries"`
	Quarantines int         `json:"quarantines"`
	SinkErrors  int         `json:"sink_errors,omitempty"`
	Firing      []string    `json:"firing,omitempty"`
	Recent      []obs.Alert `json:"recent,omitempty"`
}

// SLOStatus is the /fleet/slo payload: the effective config and
// objectives, fleet pass/fail counts, and per-tenant verdicts with the
// replay command that reproduces each tenant standalone.
type SLOStatus struct {
	Config             obs.SLOConfig   `json:"config"`
	Objectives         []obs.Objective `json:"objectives"`
	Passing            int             `json:"passing"`
	Failing            int             `json:"failing"`
	WorstBurn          float64         `json:"worst_burn"`
	FailingByObjective map[string]int  `json:"failing_by_objective"`
	Quarantined        int             `json:"quarantined,omitempty"`
	Alerts             AlertSummary    `json:"alerts"`
	PerTenant          []TenantSLO     `json:"per_tenant"`
}

// KPIs builds the live KPI payload. Safe while the fleet advances:
// sampling and payload building serialize on the plane lock.
func (f *Fleet) KPIs() LiveKPIs {
	p := f.plane
	p.mu.Lock()
	defer p.mu.Unlock()
	out := LiveKPIs{
		Seed:        f.cfg.Seed,
		Tenants:     len(f.tenants),
		Epoch:       p.epoch,
		Epochs:      f.cfg.Epochs,
		EpochLen:    f.cfg.EpochLen,
		AttachEpoch: f.cfg.AttachEpoch,
		Now:         p.now,
		Done:        p.done,
		Fleet:       make(map[string]float64, len(p.fleet)),
	}
	for _, s := range p.fleet {
		out.Fleet[s.Name()] = s.Last()
	}
	for _, t := range f.tenants {
		// A quarantined tenant's series are frozen at its quarantine
		// epoch, so evaluating over them reports its last-known state.
		verdicts := obs.Evaluate(p.objectives, t.rec.Series)
		failed := obs.FailedObjectives(verdicts)
		row := TenantLive{
			Tenant:    t.id,
			Index:     t.idx,
			Seed:      t.seed,
			Profile:   t.prof.String(),
			Last:      make(map[string]float64, len(p.specs)),
			SLOPass:   len(failed) == 0,
			WorstBurn: obs.WorstBurn(verdicts),
			Failed:    failed,
			Replay:    replayCommand(f.cfg, t.idx, t.seed),
		}
		if t.quarantined() {
			row.Quarantined = true
			row.QuarantineEpoch = t.qEpoch
			row.QuarantineReason = t.qReason
			out.Quarantined++
		}
		for _, sp := range p.specs {
			row.Last[sp.Name] = t.rec.Series(sp.Name).Last()
		}
		if !row.SLOPass {
			out.SLOFailing++
		}
		out.PerTenant = append(out.PerTenant, row)
	}
	return out
}

// TimeSeries builds the /fleet/timeseries payload.
func (f *Fleet) TimeSeries() FleetTimeSeries {
	p := f.plane
	p.mu.Lock()
	defer p.mu.Unlock()
	out := FleetTimeSeries{
		Budget:   p.budget,
		EpochLen: f.cfg.EpochLen,
		Epoch:    p.epoch,
		Fleet:    make([]obs.SeriesDump, len(p.fleet)),
	}
	for i, s := range p.fleet {
		out.Fleet[i] = s.Dump()
	}
	for _, t := range f.tenants {
		out.PerTenant = append(out.PerTenant, TenantSeries{Tenant: t.id, Series: t.rec.Dump()})
	}
	return out
}

// SLOStatus builds the /fleet/slo payload, evaluating every tenant's
// objectives over its recorded series as of the last epoch boundary.
func (f *Fleet) SLOStatus() SLOStatus {
	p := f.plane
	p.mu.Lock()
	defer p.mu.Unlock()
	out := SLOStatus{
		Config:             f.cfg.SLO,
		Objectives:         p.objectives,
		FailingByObjective: make(map[string]int),
	}
	for _, t := range f.tenants {
		verdicts := obs.Evaluate(p.objectives, t.rec.Series)
		failed := obs.FailedObjectives(verdicts)
		row := TenantSLO{
			Tenant:    t.id,
			Pass:      len(failed) == 0,
			WorstBurn: obs.WorstBurn(verdicts),
			Verdicts:  verdicts,
			Replay:    replayCommand(f.cfg, t.idx, t.seed),
		}
		if t.quarantined() {
			row.Quarantined = true
			row.QuarantineEpoch = t.qEpoch
			row.QuarantineReason = t.qReason
			out.Quarantined++
		}
		if row.Pass {
			out.Passing++
		} else {
			out.Failing++
		}
		for _, name := range failed {
			out.FailingByObjective[name]++
		}
		if row.WorstBurn > out.WorstBurn {
			out.WorstBurn = row.WorstBurn
		}
		out.PerTenant = append(out.PerTenant, row)
	}
	out.Alerts = p.alertSummary()
	return out
}

// alertSummary rolls the tracker log up; callers hold the plane lock.
func (p *obsPlane) alertSummary() AlertSummary {
	log := p.tracker.Log()
	sum := AlertSummary{
		Total:      p.tracker.Seq(),
		SinkErrors: p.sinkErrs,
		Firing:     p.tracker.FiringKeys(),
	}
	for _, a := range log {
		switch a.Kind {
		case obs.AlertSLOBreach:
			sum.Breaches++
		case obs.AlertSLORecovery:
			sum.Recoveries++
		case obs.AlertQuarantine:
			sum.Quarantines++
		}
	}
	const recent = 20
	if len(log) > recent {
		log = log[len(log)-recent:]
	}
	sum.Recent = log
	return sum
}

// Alerts returns the full deterministic alert log so far (breaches,
// recoveries, quarantines), in sequence order.
func (f *Fleet) Alerts() []obs.Alert {
	f.plane.mu.Lock()
	defer f.plane.mu.Unlock()
	return f.plane.tracker.Log()
}

// replayCommand renders the kwo-fleet invocation that replays one
// tenant standalone, byte-identical to its in-fleet run — the portal's
// drill-down link from a fleet SLO breach to a reproducible single
// simulation.
func replayCommand(cfg Config, idx int, seed int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "kwo-fleet -epochs %d -epoch-len %s -attach-epoch %d",
		cfg.Epochs, cfg.EpochLen, cfg.AttachEpoch)
	if cfg.FaultRate > 0 {
		fmt.Fprintf(&b, " -fault-rate %s", strconv.FormatFloat(cfg.FaultRate, 'g', -1, 64))
	}
	if len(cfg.Backends) > 0 {
		fmt.Fprintf(&b, " -backends %s", strings.Join(cfg.Backends, ","))
	}
	fmt.Fprintf(&b, " -tenant %d -tenant-seed %d", idx, seed)
	return b.String()
}
