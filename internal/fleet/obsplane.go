package fleet

// The fleet observability plane: at every epoch boundary the fleet
// samples each tenant's recorder (per-tenant time series on the
// simulation clock) and folds the raw values into fleet-aggregate
// series. The plane also builds the JSON payloads behind the
// /fleet/kpis and /fleet/slo endpoints, and streams /fleet/timeseries.
//
// Everything here is deterministic: sampling happens sequentially in
// tenant-index order on the epoch barrier, timestamps come from the
// simulation clock, and series downsampling is a pure function of the
// append sequence — so the plane's output is byte-identical for any
// worker count, the same contract the rollup holds.

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kwo/internal/obs"
)

// obsPlane holds the fleet-aggregate series and the epoch snapshot the
// ops endpoints read. Its mutex serializes epoch-boundary sampling
// (which appends to per-tenant and fleet series) against endpoint
// reads, so the plane is safe to scrape while the fleet advances.
type obsPlane struct {
	mu     sync.Mutex
	specs  []obs.SampleSpec
	budget int
	fleet  []*obs.Series
	epoch  int
	now    time.Time
	done   bool

	// The alert plane. The tracker runs on the simulation clock, so a
	// checkpoint replay rebuilds its log. sinkErrs counts failed
	// Config.AlertLog writes, which RunEpoch makes with mu released.
	tracker  *obs.AlertTracker
	sinkErrs atomic.Int64
}

func newObsPlane(cfg Config, start time.Time) *obsPlane {
	p := &obsPlane{
		specs:   obs.FleetSpecs(),
		now:     start,
		tracker: obs.NewAlertTracker(),
	}
	p.fleet = make([]*obs.Series, len(p.specs))
	for i, sp := range p.specs {
		p.fleet[i] = obs.NewSeries(sp.Name, sp.TimeAgg, cfg.SeriesBudget)
	}
	// The payloads report the budget the series keep, which NewSeries
	// may have raised from the configured one.
	p.budget = p.fleet[0].Budget()
	return p
}

// record takes the epoch-boundary sample: every tenant's in index order
// (each tenant appends to its own series, re-evaluates its objectives
// and returns the raw per-spec values), then the cross-tenant aggregate
// under each spec's CrossAgg into the fleet series. Sequential by
// design — the sample is a pure reduction over already-advanced
// tenants, cheap next to an epoch of simulation, and a fixed order
// keeps float accumulation deterministic. It returns the alerts the
// barrier fired, in sequence order.
func (p *obsPlane) record(t time.Time, epoch int, tenants []*tenant) []obs.Alert {
	p.mu.Lock()
	defer p.mu.Unlock()
	var fired []obs.Alert
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
				fired = append(fired, p.tracker.Quarantine(t, tn.qEpoch, tn.id, tn.qReason))
			}
			continue
		}
		vals := tn.sample(t)
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
	// SLO burn alerting: the tracker dedupes transitions in each active
	// tenant's freshly stored verdicts. Sequential in index order under
	// the plane lock, so alert sequence numbers are deterministic for
	// any worker count.
	for _, tn := range tenants {
		if tn.quarantined() {
			continue
		}
		fired = append(fired, p.tracker.Observe(t, epoch, tn.id, tn.slo)...)
	}
	p.epoch = epoch
	p.now = t
	return fired
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
		// A quarantined tenant's verdicts stay those of its last sample,
		// before the quarantine epoch: its last-known state.
		failed := obs.FailedObjectives(t.slo)
		row := TenantLive{
			Tenant:    t.id,
			Index:     t.idx,
			Seed:      t.seed,
			Profile:   t.profText,
			Last:      make(map[string]float64, len(p.specs)),
			SLOPass:   len(failed) == 0,
			WorstBurn: obs.WorstBurn(t.slo),
			Failed:    failed,
			Replay:    t.replayCmd,
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

// TimeSeries builds the /fleet/timeseries payload as a value, for Go
// callers and checkpoint views. The endpoint streams the same bytes
// without building it (writeTimeSeries).
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

// tsChunk is how many rendered bytes a /fleet/timeseries read gathers
// before it writes them out.
const tsChunk = 32 << 10

// tsScratch is the working set of one /fleet/timeseries read: the
// series copied under the plane lock and the write buffer. It is
// pooled rather than kept on the Fleet, so no read's scratch outlives
// the next garbage collections.
type tsScratch struct {
	series obs.SeriesCopy
	buf    []byte
}

var tsScratchPool = sync.Pool{New: func() any { return new(tsScratch) }}

// writeTimeSeries streams the /fleet/timeseries payload with per-tenant
// series for rows only (every tenant, or one for a drill-down): the
// bytes encoding/json with a two-space indent renders for TimeSeries
// with per_tenant cut to rows. The plane lock covers only bringing each
// series' rendered points up to date and copying them out (the fleet's
// series at depth 1, each tenant's at depth 3), or copying the points of
// a series whose render starts over. Those renders are made after the
// lock is released and handed to their series under it again. The
// document is assembled from the copied bytes, and every Write made,
// with the lock released, so a stalled client cannot hold up the epoch
// barrier. A non-finite value fails the whole payload before anything
// is written, with the error encoding/json returns.
func (f *Fleet) writeTimeSeries(w io.Writer, rows []*tenant) error {
	s := tsScratchPool.Get().(*tsScratch)
	defer func() {
		s.series.Reset()
		tsScratchPool.Put(s)
	}()
	p := f.plane
	p.mu.Lock()
	budget, epoch := p.budget, p.epoch
	s.series.Add(1, p.fleet...)
	for _, t := range rows {
		s.series.AddRecorder(t.rec, 3)
	}
	p.mu.Unlock()
	if s.series.Render() {
		p.mu.Lock()
		s.series.Keep()
		p.mu.Unlock()
	}
	if err := s.series.Err(); err != nil {
		return err
	}
	// The fleet and every tenant record the same specs, so series
	// [n*k, n*(k+1)) are the fleet's for k = 0 and rows[k-1]'s after.
	// rows is never empty (a fleet has at least one tenant), so
	// per_tenant is never encoding/json's null.
	n := len(p.specs)
	b := append(s.buf[:0], "{\n  \"budget\": "...)
	b = strconv.AppendInt(b, int64(budget), 10)
	b = append(b, ",\n  \"epoch_len_ns\": "...)
	b = strconv.AppendInt(b, int64(f.cfg.EpochLen), 10)
	b = append(b, ",\n  \"epoch\": "...)
	b = strconv.AppendInt(b, int64(epoch), 10)
	b = append(b, ",\n  \"fleet\": "...)
	b = s.series.AppendJSON(b, 0, n)
	b = append(b, ",\n  \"per_tenant\": ["...)
	for i, t := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n    {\n      \"tenant\": "...)
		b = obs.AppendJSONString(b, t.id)
		b = append(b, ",\n      \"series\": "...)
		b = s.series.AppendJSON(b, n*(i+1), n*(i+2))
		b = append(b, "\n    }"...)
		if len(b) >= tsChunk {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
	}
	b = append(b, "\n  ]\n}\n"...)
	s.buf = b
	_, err := w.Write(b)
	return err
}

// SLOStatus builds the /fleet/slo payload from the verdicts every
// tenant stored on the last epoch boundary.
func (f *Fleet) SLOStatus() SLOStatus { return f.sloStatus(f.tenants) }

// sloStatus builds the /fleet/slo payload with per-tenant rows for rows
// only: every tenant, or one for a drill-down. The fleet-wide counts
// always cover every tenant.
func (f *Fleet) sloStatus(rows []*tenant) SLOStatus {
	p := f.plane
	p.mu.Lock()
	defer p.mu.Unlock()
	out := SLOStatus{
		Config: f.cfg.SLO,
		// Every tenant evaluates the same objectives, built from Config.
		Objectives:         f.tenants[0].objs,
		FailingByObjective: make(map[string]int),
	}
	for _, t := range f.tenants {
		failed := obs.FailedObjectives(t.slo)
		if len(failed) == 0 {
			out.Passing++
		} else {
			out.Failing++
		}
		for _, name := range failed {
			out.FailingByObjective[name]++
		}
		if b := obs.WorstBurn(t.slo); b > out.WorstBurn {
			out.WorstBurn = b
		}
		if t.quarantined() {
			out.Quarantined++
		}
	}
	for _, t := range rows {
		row := TenantSLO{
			Tenant:    t.id,
			Pass:      len(obs.FailedObjectives(t.slo)) == 0,
			WorstBurn: obs.WorstBurn(t.slo),
			Verdicts:  t.slo,
			Replay:    t.replayCmd,
		}
		if t.quarantined() {
			row.Quarantined = true
			row.QuarantineEpoch = t.qEpoch
			row.QuarantineReason = t.qReason
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
		SinkErrors: int(p.sinkErrs.Load()),
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
// simulation. Each optional flag appears only when its value differs
// from the default.
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
	// The SLO thresholds, as kwo-fleet's -slo key=value pairs.
	def := obs.SLOConfig{}.WithDefaults()
	sep := " -slo "
	for _, kv := range []struct {
		key       string
		val, dflt float64
	}{
		{"enforcement-sla", cfg.SLO.MaxAbandonRatio, def.MaxAbandonRatio},
		{"degraded-time", cfg.SLO.MaxDegradedRatio, def.MaxDegradedRatio},
		{"p99-factor", cfg.SLO.P99BandFactor, def.P99BandFactor},
		{"p99-ratio", cfg.SLO.MaxP99BandRatio, def.MaxP99BandRatio},
		{"savings-floor", cfg.SLO.MinSavingsShare, def.MinSavingsShare},
	} {
		if kv.val != kv.dflt {
			fmt.Fprintf(&b, "%s%s=%s", sep, kv.key, strconv.FormatFloat(kv.val, 'g', -1, 64))
			sep = ","
		}
	}
	if cfg.SeriesBudget != defaultSeriesBudget {
		fmt.Fprintf(&b, " -series-budget %d", cfg.SeriesBudget)
	}
	fmt.Fprintf(&b, " -tenant %d -tenant-seed %d", idx, seed)
	return b.String()
}
