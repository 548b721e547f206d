package obs

// The alert plane: structured, deduplicated notifications derived from
// SLO verdicts. An AlertTracker watches per-tenant verdicts at every
// evaluation tick and fires a breach alert when an objective's burn
// crosses 1, a recovery alert when it returns under budget, and a
// quarantine alert when the fleet freezes a tenant out. Alerts are
// evaluated on the simulation clock and sequenced deterministically, so
// two runs of the same seed produce byte-identical alert logs; only
// writing the log out touches the outside world.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// AlertKind is the typed vocabulary of the alert plane.
type AlertKind string

const (
	// AlertSLOBreach — an objective's error-budget burn crossed 1.
	AlertSLOBreach AlertKind = "slo-breach"
	// AlertSLORecovery — a breached objective returned under budget.
	AlertSLORecovery AlertKind = "slo-recovery"
	// AlertQuarantine — the fleet quarantined a tenant (panic or epoch
	// deadline exceeded) and froze it out of subsequent epochs.
	AlertQuarantine AlertKind = "tenant-quarantined"
)

// Alert is one structured alert event. Time always comes from the
// simulation clock; Seq orders alerts totally within one tracker.
type Alert struct {
	Seq       uint64    `json:"seq"`
	Time      time.Time `json:"time"`
	Kind      AlertKind `json:"kind"`
	Tenant    string    `json:"tenant"`
	Epoch     int       `json:"epoch"`
	Objective string    `json:"objective,omitempty"`
	Burn      float64   `json:"burn,omitempty"`
	Value     float64   `json:"value,omitempty"`
	Target    float64   `json:"target,omitempty"`
	Detail    string    `json:"detail,omitempty"`
}

// JSON renders the alert as one deterministic JSON line (fixed field
// order, shortest round-trip floats).
func (a Alert) JSON() string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"seq":%d,"time":%q,"kind":%q,"tenant":%q,"epoch":%d`,
		a.Seq, a.Time.Format(time.RFC3339Nano), a.Kind, a.Tenant, a.Epoch)
	if a.Objective != "" {
		fmt.Fprintf(&b, `,"objective":%q`, a.Objective)
	}
	if a.Burn != 0 {
		fmt.Fprintf(&b, `,"burn":%s`, strconv.FormatFloat(a.Burn, 'g', -1, 64))
	}
	if a.Value != 0 {
		fmt.Fprintf(&b, `,"value":%s`, strconv.FormatFloat(a.Value, 'g', -1, 64))
	}
	if a.Target != 0 {
		fmt.Fprintf(&b, `,"target":%s`, strconv.FormatFloat(a.Target, 'g', -1, 64))
	}
	if a.Detail != "" {
		fmt.Fprintf(&b, `,"detail":%q`, a.Detail)
	}
	b.WriteByte('}')
	return b.String()
}

// String renders a compact single-line form for logs.
func (a Alert) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s #%d %s tenant=%s epoch=%d",
		a.Time.Format(time.RFC3339), a.Seq, a.Kind, a.Tenant, a.Epoch)
	if a.Objective != "" {
		fmt.Fprintf(&b, " objective=%s burn=%.2f", a.Objective, a.Burn)
	}
	if a.Detail != "" {
		fmt.Fprintf(&b, " detail=%q", a.Detail)
	}
	return b.String()
}

// AlertTracker turns per-tenant SLO verdicts into deduplicated alerts:
// a breach fires only when a (tenant, objective) pair transitions from
// under budget to over, and a recovery only on the way back. The
// tracker is not self-locking — the fleet drives it sequentially on
// epoch barriers under the observability plane's lock.
type AlertTracker struct {
	seq    uint64
	firing map[string]bool
	log    []Alert
}

// NewAlertTracker returns an empty tracker.
func NewAlertTracker() *AlertTracker {
	return &AlertTracker{firing: make(map[string]bool)}
}

func firingKey(tenant, objective string) string { return tenant + "/" + objective }

// Observe evaluates one tenant's verdicts at one tick and returns the
// alerts that newly fired (appended to the tracker's log as well).
func (tr *AlertTracker) Observe(t time.Time, epoch int, tenant string, verdicts []Verdict) []Alert {
	var fired []Alert
	for _, v := range verdicts {
		key := firingKey(tenant, v.Objective)
		switch {
		case !v.Pass && !tr.firing[key]:
			tr.firing[key] = true
			fired = append(fired, tr.emit(Alert{
				Time: t, Kind: AlertSLOBreach, Tenant: tenant, Epoch: epoch,
				Objective: v.Objective, Burn: v.Burn, Value: v.Value, Target: v.Target,
				Detail: v.Detail,
			}))
		case v.Pass && tr.firing[key]:
			delete(tr.firing, key)
			fired = append(fired, tr.emit(Alert{
				Time: t, Kind: AlertSLORecovery, Tenant: tenant, Epoch: epoch,
				Objective: v.Objective, Burn: v.Burn, Value: v.Value, Target: v.Target,
				Detail: v.Detail,
			}))
		}
	}
	return fired
}

// Quarantine records a tenant-quarantined alert.
func (tr *AlertTracker) Quarantine(t time.Time, epoch int, tenant, reason string) Alert {
	return tr.emit(Alert{
		Time: t, Kind: AlertQuarantine, Tenant: tenant, Epoch: epoch, Detail: reason,
	})
}

func (tr *AlertTracker) emit(a Alert) Alert {
	tr.seq++
	a.Seq = tr.seq
	tr.log = append(tr.log, a)
	return a
}

// Seq returns the number of alerts emitted so far.
func (tr *AlertTracker) Seq() uint64 { return tr.seq }

// Log returns a copy of every alert emitted, in sequence order.
func (tr *AlertTracker) Log() []Alert { return append([]Alert(nil), tr.log...) }

// FiringKeys returns the currently-breached (tenant, objective) pairs
// as sorted "tenant/objective" strings — the checkpointed dedup state.
func (tr *AlertTracker) FiringKeys() []string {
	keys := make([]string, 0, len(tr.firing))
	for k := range tr.firing {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
