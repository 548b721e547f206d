// Package policy implements the customer-facing control surface of KWO:
// hard constraint rules (§4.1 "Constraints"), the five-position
// cost/performance slider (§4.1 "Sliders") with its mapping to internal
// hyper-parameters, and the backoff controller that turns real-time
// monitor feedback into self-correction (§4.3, §4.4).
package policy

import (
	"fmt"
	"time"

	"kwo/internal/action"
	"kwo/internal/cdw"
)

// Rule is one customer constraint: during a time window (certain hours
// of certain days) it can forbid classes of optimizations or enforce
// resource floors/ceilings. "KWO's automated optimizations always
// respect the customer provided rules, treating them as hard business
// constraints."
type Rule struct {
	Name string

	// Days restricts the rule to these weekdays; empty means every day.
	Days []time.Weekday
	// StartMinute/EndMinute bound the rule within the day, minutes
	// after midnight UTC, window [Start, End). Both zero means the
	// whole day. Windows may wrap midnight (Start > End).
	StartMinute int
	EndMinute   int

	// Prohibitions.
	NoDownsize      bool // e.g. "cannot be downsized even if underutilized"
	NoUpsize        bool
	NoSuspendChange bool
	NoClusterChange bool

	// Enforcements, applied while the rule is active.
	MinSize     *cdw.Size
	MaxSize     *cdw.Size
	MinClusters *int // e.g. "a minimum of 3 clusters"
	EnforceSize *cdw.Size
}

// Validate reports the first problem with the rule.
func (r Rule) Validate() error {
	if r.StartMinute < 0 || r.StartMinute >= 24*60 ||
		r.EndMinute < 0 || r.EndMinute > 24*60 {
		return fmt.Errorf("policy: rule %q: minutes out of range", r.Name)
	}
	if r.MinSize != nil && !r.MinSize.Valid() {
		return fmt.Errorf("policy: rule %q: invalid MinSize", r.Name)
	}
	if r.MaxSize != nil && !r.MaxSize.Valid() {
		return fmt.Errorf("policy: rule %q: invalid MaxSize", r.Name)
	}
	if r.MinSize != nil && r.MaxSize != nil && *r.MinSize > *r.MaxSize {
		return fmt.Errorf("policy: rule %q: MinSize > MaxSize", r.Name)
	}
	if r.MinClusters != nil && *r.MinClusters < 1 {
		return fmt.Errorf("policy: rule %q: MinClusters < 1", r.Name)
	}
	return nil
}

// ActiveAt reports whether the rule applies at t (UTC).
func (r Rule) ActiveAt(t time.Time) bool {
	if len(r.Days) > 0 {
		ok := false
		for _, d := range r.Days {
			if t.Weekday() == d {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if r.StartMinute == 0 && r.EndMinute == 0 {
		return true
	}
	min := t.Hour()*60 + t.Minute()
	if r.StartMinute <= r.EndMinute {
		return min >= r.StartMinute && min < r.EndMinute
	}
	// Wrapping window, e.g. 22:00–06:00.
	return min >= r.StartMinute || min < r.EndMinute
}

// Constraints is the ordered set of rules for one warehouse.
type Constraints []Rule

// Validate checks every rule.
func (cs Constraints) Validate() error {
	for _, r := range cs {
		if err := r.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Allows reports whether applying act to cur at time t violates any
// active rule. It checks both the action class (prohibitions) and the
// resulting configuration (enforcements).
func (cs Constraints) Allows(t time.Time, cur cdw.Config, act action.Action) bool {
	next := act.Target(cur)
	for _, r := range cs {
		if !r.ActiveAt(t) {
			continue
		}
		switch act.Kind {
		case action.SizeDown:
			if r.NoDownsize {
				return false
			}
		case action.SizeUp:
			if r.NoUpsize {
				return false
			}
		case action.SuspendShorter, action.SuspendLonger:
			if r.NoSuspendChange {
				return false
			}
		case action.ClustersUp, action.ClustersDown:
			if r.NoClusterChange {
				return false
			}
		}
		if r.MinSize != nil && next.Size < *r.MinSize {
			return false
		}
		if r.MaxSize != nil && next.Size > *r.MaxSize {
			return false
		}
		if r.MinClusters != nil && next.MaxClusters < *r.MinClusters {
			return false
		}
		if r.EnforceSize != nil && next.Size != *r.EnforceSize {
			return false
		}
	}
	return true
}

// AllowsAlteration reports whether applying the raw alteration to cur
// at time t violates any active rule — the Alteration-level counterpart
// of Allows. The engine uses it to filter post-enforcement restores:
// restoring the pre-window configuration is itself a configuration
// change and must honor the prohibitions active at restore time.
func (cs Constraints) AllowsAlteration(t time.Time, cur cdw.Config, alt cdw.Alteration) bool {
	next := alt.Apply(cur)
	for _, r := range cs {
		if !r.ActiveAt(t) {
			continue
		}
		if r.NoDownsize && next.Size < cur.Size {
			return false
		}
		if r.NoUpsize && next.Size > cur.Size {
			return false
		}
		if r.NoSuspendChange && next.AutoSuspend != cur.AutoSuspend {
			return false
		}
		if r.NoClusterChange &&
			(next.MinClusters != cur.MinClusters || next.MaxClusters != cur.MaxClusters) {
			return false
		}
		if r.MinSize != nil && next.Size < *r.MinSize {
			return false
		}
		if r.MaxSize != nil && next.Size > *r.MaxSize {
			return false
		}
		if r.MinClusters != nil && next.MaxClusters < *r.MinClusters {
			return false
		}
		if r.EnforceSize != nil && next.Size != *r.EnforceSize {
			return false
		}
	}
	return true
}

// Required returns the alteration needed to bring cur into compliance
// with the rules active at t, or a zero Alteration if already
// compliant. This implements enforcement rules like "from 9am to 9:30am
// the BI warehouse must change from Large to X-Large with a minimum of
// 3 clusters".
func (cs Constraints) Required(t time.Time, cur cdw.Config) cdw.Alteration {
	target := cur
	for _, r := range cs {
		if !r.ActiveAt(t) {
			continue
		}
		if r.EnforceSize != nil {
			target.Size = *r.EnforceSize
		}
		if r.MinSize != nil && target.Size < *r.MinSize {
			target.Size = *r.MinSize
		}
		if r.MaxSize != nil && target.Size > *r.MaxSize {
			target.Size = *r.MaxSize
		}
		if r.MinClusters != nil {
			if target.MaxClusters < *r.MinClusters {
				target.MaxClusters = *r.MinClusters
			}
			if target.MinClusters < *r.MinClusters {
				target.MinClusters = *r.MinClusters
			}
		}
	}
	var alt cdw.Alteration
	if target.Size != cur.Size {
		alt.Size = cdw.SizeP(target.Size)
	}
	if target.MinClusters != cur.MinClusters {
		alt.MinClusters = cdw.IntP(target.MinClusters)
	}
	if target.MaxClusters != cur.MaxClusters {
		alt.MaxClusters = cdw.IntP(target.MaxClusters)
	}
	return alt
}

// EnforcementActive reports whether any rule with resource
// enforcements (size pinning, floors, cluster minimums) applies at t.
// The engine uses it to know when an enforcement window has ended and
// the pre-enforcement configuration should be restored.
func (cs Constraints) EnforcementActive(t time.Time) bool {
	for _, r := range cs {
		if !r.ActiveAt(t) {
			continue
		}
		if r.EnforceSize != nil || r.MinSize != nil || r.MaxSize != nil || r.MinClusters != nil {
			return true
		}
	}
	return false
}
