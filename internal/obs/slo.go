package obs

// The SLO layer turns recorded series into error-budget verdicts: each
// declarative Objective reduces one or two series to a scalar, compares
// it against a target, and reports burn — the fraction of the error
// budget consumed, where burn 1.0 means the objective sits exactly at
// its target and anything above is a breach. The fleet evaluates the
// default objectives per tenant; everything here is pure arithmetic
// over Series, so verdicts inherit the series' determinism.

import (
	"encoding/json"
	"fmt"
)

// BurnCap bounds reported burn so a zero-denominator breach (e.g. a
// savings floor with zero savings) stays finite and JSON-encodable.
const BurnCap = 1000.0

// SLOConfig holds the fleet's objective thresholds. Zero fields take
// the documented defaults, so the zero value is a valid config.
type SLOConfig struct {
	// MaxAbandonRatio caps abandoned actions (exhausted retries or
	// permanent failures) over action attempts. Default 0.05.
	MaxAbandonRatio float64 `json:"max_abandon_ratio"`
	// MaxDegradedRatio caps degraded decision ticks over all decision
	// ticks. Default 0.25.
	MaxDegradedRatio float64 `json:"max_degraded_ratio"`
	// P99BandFactor is the multiple of the monitor's baseline p99 the
	// observed p99 may reach before an epoch counts as violating.
	// Default 3.
	P99BandFactor float64 `json:"p99_band_factor"`
	// MaxP99BandRatio caps the fraction of (eligible) epochs whose p99
	// left the band. Default 0.1.
	MaxP99BandRatio float64 `json:"max_p99_band_ratio"`
	// MinSavingsShare is the floor on savings / (spend + savings).
	// Default 0.05.
	MinSavingsShare float64 `json:"min_savings_share"`
}

// WithDefaults fills zero fields with the default thresholds.
func (c SLOConfig) WithDefaults() SLOConfig {
	if c.MaxAbandonRatio == 0 {
		c.MaxAbandonRatio = 0.05
	}
	if c.MaxDegradedRatio == 0 {
		c.MaxDegradedRatio = 0.25
	}
	if c.P99BandFactor == 0 {
		c.P99BandFactor = 3
	}
	if c.MaxP99BandRatio == 0 {
		c.MaxP99BandRatio = 0.1
	}
	if c.MinSavingsShare == 0 {
		c.MinSavingsShare = 0.05
	}
	return c
}

// ObjectiveKind selects an objective's evaluation rule.
type ObjectiveKind int

const (
	// RatioUnder passes when sum(Num totals) / sum(Den totals) <= Target.
	RatioUnder ObjectiveKind = iota
	// RatioOver passes when sum(Num totals) / sum(Den totals) >= Target.
	RatioOver
	// BandUnder passes when the fraction of points where
	// Series > Factor * Ref (among points where both are positive)
	// is <= Target.
	BandUnder
)

// String returns the wire name.
func (k ObjectiveKind) String() string {
	switch k {
	case RatioOver:
		return "ratio-over"
	case BandUnder:
		return "band-under"
	}
	return "ratio-under"
}

// MarshalJSON encodes the kind as its wire name.
func (k ObjectiveKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON decodes the wire name.
func (k *ObjectiveKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	switch s {
	case "ratio-under":
		*k = RatioUnder
	case "ratio-over":
		*k = RatioOver
	case "band-under":
		*k = BandUnder
	default:
		return fmt.Errorf("obs: unknown objective kind %q", s)
	}
	return nil
}

// Objective is one declarative SLO over recorded series.
type Objective struct {
	Name string        `json:"name"`
	Kind ObjectiveKind `json:"kind"`
	// Num and Den name the numerator and denominator series for the
	// ratio kinds (totals are summed across each list).
	Num []string `json:"num,omitempty"`
	Den []string `json:"den,omitempty"`
	// Series and Ref name the subject and reference series for
	// BandUnder; Factor scales the reference.
	Series string  `json:"series,omitempty"`
	Ref    string  `json:"ref,omitempty"`
	Factor float64 `json:"factor,omitempty"`
	// Target is the threshold the objective's value is held to.
	Target float64 `json:"target"`
}

// Verdict is one evaluated objective: the measured value, the target,
// pass/fail, and error-budget burn (value/target for "stay under"
// objectives, target/value for "stay over"; burn <= 1 iff Pass).
type Verdict struct {
	Objective string  `json:"objective"`
	Pass      bool    `json:"pass"`
	Value     float64 `json:"value"`
	Target    float64 `json:"target"`
	Burn      float64 `json:"burn"`
	Detail    string  `json:"detail,omitempty"`
}

// Evaluate runs every objective against the series returned by lookup
// (nil means the series does not exist; missing series contribute no
// data). An objective with no data passes with zero burn — an SLO
// cannot be breached by silence, only by evidence.
func Evaluate(objectives []Objective, lookup func(name string) *Series) []Verdict {
	out := make([]Verdict, 0, len(objectives))
	for _, o := range objectives {
		out = append(out, evaluateOne(o, lookup))
	}
	return out
}

func evaluateOne(o Objective, lookup func(string) *Series) Verdict {
	v := Verdict{Objective: o.Name, Target: o.Target}
	switch o.Kind {
	case BandUnder:
		sub, ref := lookup(o.Series), lookup(o.Ref)
		if sub == nil || ref == nil {
			return pass(v, "no data")
		}
		sp, rp := sub.Points(), ref.Points()
		n := len(sp)
		if len(rp) < n {
			n = len(rp)
		}
		var eligible, violating int
		for i := 0; i < n; i++ {
			if sp[i].V <= 0 || rp[i].V <= 0 {
				continue // epochs before the monitor has a baseline (or traffic)
			}
			eligible++
			if sp[i].V > o.Factor*rp[i].V {
				violating++
			}
		}
		if eligible == 0 {
			return pass(v, "no data")
		}
		v.Value = float64(violating) / float64(eligible)
		v.Detail = fmt.Sprintf("%d/%d epochs outside %gx band", violating, eligible, o.Factor)
		return burnUnder(v)
	case RatioOver:
		num, den, ok := ratio(o, lookup)
		if !ok {
			return pass(v, "no data")
		}
		v.Value = num / den
		return burnOver(v)
	default: // RatioUnder
		num, den, ok := ratio(o, lookup)
		if !ok {
			return pass(v, "no data")
		}
		v.Value = num / den
		return burnUnder(v)
	}
}

// ratio sums the Num and Den series totals; ok is false when the
// denominator has no data or totals zero (nothing to hold a ratio to).
func ratio(o Objective, lookup func(string) *Series) (num, den float64, ok bool) {
	anyDen := false
	for _, name := range o.Den {
		if s := lookup(name); s != nil {
			if t, has := s.Total(); has {
				den += t
				anyDen = true
			}
		}
	}
	for _, name := range o.Num {
		if s := lookup(name); s != nil {
			if t, has := s.Total(); has {
				num += t
			}
		}
	}
	if !anyDen || den <= 0 {
		return 0, 0, false
	}
	return num, den, true
}

func pass(v Verdict, detail string) Verdict {
	v.Pass = true
	v.Burn = 0
	if v.Detail == "" {
		v.Detail = detail
	}
	return v
}

// burnUnder finalizes a "value must stay <= target" verdict.
func burnUnder(v Verdict) Verdict {
	switch {
	case v.Target > 0:
		v.Burn = capBurn(v.Value / v.Target)
	case v.Value > 0:
		v.Burn = BurnCap
	}
	v.Pass = v.Burn <= 1
	return v
}

// burnOver finalizes a "value must stay >= target" verdict.
func burnOver(v Verdict) Verdict {
	switch {
	case v.Target <= 0:
		v.Burn = 0
	case v.Value > 0:
		v.Burn = capBurn(v.Target / v.Value)
	default:
		v.Burn = BurnCap
	}
	v.Pass = v.Burn <= 1
	return v
}

func capBurn(b float64) float64 {
	if b > BurnCap {
		return BurnCap
	}
	return b
}

// Recorded series names — the fleet's standard per-tenant sample set.
const (
	SeriesQueries        = "queries"
	SeriesSpendCredits   = "spend_credits"
	SeriesSavingsCredits = "savings_credits"
	SeriesP99Seconds     = "p99_seconds"
	SeriesBaselineP99    = "baseline_p99_seconds"
	SeriesDegraded       = "degraded"
	SeriesDecisionTicks  = "decision_ticks"
	SeriesDegradedTicks  = "degraded_ticks"
	SeriesActionAttempts = "action_attempts"
	SeriesActionAbandons = "action_abandoned"
)

// FleetSpecs is the standard per-tenant sample set the fleet records at
// every epoch boundary. Rates (queries, ticks, attempts) are per-epoch
// deltas that downsample by summing; levels (credits) are sampled
// as-of the boundary and keep the latest value; p99 is a per-epoch
// bucket-delta quantile that downsamples (and cross-aggregates) by max;
// the degraded indicator averages over time so its total is the
// degraded-time fraction.
func FleetSpecs() []SampleSpec {
	return []SampleSpec{
		{Name: SeriesQueries, Family: MetricQueries, Mode: ModeDelta,
			TimeAgg: AggSum, CrossAgg: AggSum},
		{Name: SeriesSpendCredits, Family: MetricInvoiceActual, Mode: ModeValue,
			TimeAgg: AggLast, CrossAgg: AggSum},
		{Name: SeriesSavingsCredits, Family: MetricInvoiceSavings, Mode: ModeValue,
			TimeAgg: AggLast, CrossAgg: AggSum},
		{Name: SeriesP99Seconds, Family: MetricQueryLatency, Mode: ModeQuantile, Q: 0.99,
			TimeAgg: AggMax, CrossAgg: AggMax},
		{Name: SeriesBaselineP99, Family: MetricBaselineP99, Mode: ModeValue,
			TimeAgg: AggMax, CrossAgg: AggMax},
		{Name: SeriesDegraded, Family: MetricDegraded, Mode: ModeValue,
			TimeAgg: AggMean, CrossAgg: AggSum},
		{Name: SeriesDecisionTicks, Family: MetricDecisionTicks, Mode: ModeDelta,
			TimeAgg: AggSum, CrossAgg: AggSum},
		{Name: SeriesDegradedTicks, Family: MetricDegradedTicks, Mode: ModeDelta,
			TimeAgg: AggSum, CrossAgg: AggSum},
		{Name: SeriesActionAttempts, Family: MetricActionAttempts, Mode: ModeDelta,
			TimeAgg: AggSum, CrossAgg: AggSum},
		{Name: SeriesActionAbandons, Family: MetricActionFailures, Mode: ModeDelta,
			Filter:  &LabelFilter{Label: "kind", Values: []string{"exhausted", "permanent"}},
			TimeAgg: AggSum, CrossAgg: AggSum},
	}
}

// Default objective names.
const (
	ObjectiveEnforcementSLA = "enforcement-sla"
	ObjectiveDegradedTime   = "degraded-time"
	ObjectiveP99Band        = "p99-band"
	ObjectiveSavingsFloor   = "savings-floor"
)

// Objectives builds the default fleet objectives over the FleetSpecs
// series, using the config's (defaulted) thresholds:
//
//   - enforcement-sla: abandoned actions / attempts <= MaxAbandonRatio
//   - degraded-time:   degraded ticks / decision ticks <= MaxDegradedRatio
//   - p99-band:        fraction of epochs with p99 > P99BandFactor ×
//     baseline p99 <= MaxP99BandRatio
//   - savings-floor:   savings / (spend + savings) >= MinSavingsShare
func (c SLOConfig) Objectives() []Objective {
	c = c.WithDefaults()
	return []Objective{
		{Name: ObjectiveEnforcementSLA, Kind: RatioUnder,
			Num: []string{SeriesActionAbandons}, Den: []string{SeriesActionAttempts},
			Target: c.MaxAbandonRatio},
		{Name: ObjectiveDegradedTime, Kind: RatioUnder,
			Num: []string{SeriesDegradedTicks}, Den: []string{SeriesDecisionTicks},
			Target: c.MaxDegradedRatio},
		{Name: ObjectiveP99Band, Kind: BandUnder,
			Series: SeriesP99Seconds, Ref: SeriesBaselineP99,
			Factor: c.P99BandFactor, Target: c.MaxP99BandRatio},
		{Name: ObjectiveSavingsFloor, Kind: RatioOver,
			Num:    []string{SeriesSavingsCredits},
			Den:    []string{SeriesSpendCredits, SeriesSavingsCredits},
			Target: c.MinSavingsShare},
	}
}

// PublishSLO mirrors verdicts onto the hub's kwo_slo_burn /
// kwo_slo_pass gauges (pass is 1/0).
func PublishSLO(h *Hub, verdicts []Verdict) {
	if h == nil {
		return
	}
	for _, v := range verdicts {
		h.SLOBurn.With(v.Objective).Set(v.Burn)
		p := 0.0
		if v.Pass {
			p = 1
		}
		h.SLOPass.With(v.Objective).Set(p)
	}
}

// WorstBurn returns the largest burn across verdicts.
func WorstBurn(verdicts []Verdict) float64 {
	var worst float64
	for _, v := range verdicts {
		if v.Burn > worst {
			worst = v.Burn
		}
	}
	return worst
}

// FailedObjectives lists the names of failing verdicts, in order.
func FailedObjectives(verdicts []Verdict) []string {
	var out []string
	for _, v := range verdicts {
		if !v.Pass {
			out = append(out, v.Objective)
		}
	}
	return out
}
