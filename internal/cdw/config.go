package cdw

import (
	"fmt"
	"time"
)

// ScalingPolicy controls when a multi-cluster warehouse adds and removes
// clusters, mirroring Snowflake's two documented policies.
type ScalingPolicy int

const (
	// ScaleStandard prevents queuing by starting additional clusters
	// as soon as queries queue.
	ScaleStandard ScalingPolicy = iota
	// ScaleEconomy conserves credits by starting additional clusters
	// only when there is enough queued work to keep a new cluster busy,
	// and by keeping clusters fully loaded before scaling out.
	ScaleEconomy
)

// String returns the Snowflake display name for the policy.
func (p ScalingPolicy) String() string {
	switch p {
	case ScaleStandard:
		return "Standard"
	case ScaleEconomy:
		return "Economy"
	default:
		return fmt.Sprintf("ScalingPolicy(%d)", int(p))
	}
}

// Config is the user-settable configuration of a virtual warehouse —
// the knobs that both the customer and the optimizer can turn.
type Config struct {
	Name        string
	Size        Size
	MinClusters int // >= 1
	// MaxClusters is >= MinClusters. Min == Max > 1 runs the warehouse
	// in Snowflake's Maximized mode (all clusters started together);
	// Min == Max == 1 is a plain single-cluster warehouse, not
	// Maximized — Maximized is a multi-cluster concept.
	MaxClusters int
	Policy      ScalingPolicy // scale-out/scale-in behaviour
	AutoSuspend time.Duration // idle period before automatic suspension; 0 disables
	AutoResume  bool          // resume automatically when a query arrives
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("cdw: warehouse name must not be empty")
	}
	if !c.Size.Valid() {
		return fmt.Errorf("cdw: warehouse %s: invalid size %d", c.Name, int(c.Size))
	}
	if c.MinClusters < 1 {
		return fmt.Errorf("cdw: warehouse %s: MinClusters must be >= 1, got %d", c.Name, c.MinClusters)
	}
	if c.MaxClusters < c.MinClusters {
		return fmt.Errorf("cdw: warehouse %s: MaxClusters (%d) < MinClusters (%d)",
			c.Name, c.MaxClusters, c.MinClusters)
	}
	if c.AutoSuspend < 0 {
		return fmt.Errorf("cdw: warehouse %s: negative AutoSuspend", c.Name)
	}
	return nil
}

// Alteration is a partial configuration change, the simulator's
// equivalent of an ALTER WAREHOUSE statement. Nil fields are left
// untouched.
type Alteration struct {
	Size        *Size
	MinClusters *int
	MaxClusters *int
	Policy      *ScalingPolicy
	AutoSuspend *time.Duration
	AutoResume  *bool
	// Suspend and Resume request an immediate state change
	// (ALTER WAREHOUSE ... SUSPEND / RESUME).
	Suspend bool
	Resume  bool
}

// IsZero reports whether the alteration changes nothing.
func (a Alteration) IsZero() bool {
	return a.Size == nil && a.MinClusters == nil && a.MaxClusters == nil &&
		a.Policy == nil && a.AutoSuspend == nil && a.AutoResume == nil &&
		!a.Suspend && !a.Resume
}

// String renders the alteration roughly as the SQL the actuator would
// emit against a real warehouse.
func (a Alteration) String() string {
	s := "ALTER WAREHOUSE SET"
	if a.Size != nil {
		s += fmt.Sprintf(" WAREHOUSE_SIZE=%s", *a.Size)
	}
	if a.MinClusters != nil {
		s += fmt.Sprintf(" MIN_CLUSTER_COUNT=%d", *a.MinClusters)
	}
	if a.MaxClusters != nil {
		s += fmt.Sprintf(" MAX_CLUSTER_COUNT=%d", *a.MaxClusters)
	}
	if a.Policy != nil {
		s += fmt.Sprintf(" SCALING_POLICY=%s", *a.Policy)
	}
	if a.AutoSuspend != nil {
		// AUTO_SUSPEND takes whole seconds; render the same
		// round-to-nearest-second value Apply installs, so the logged
		// statement never disagrees with the applied configuration.
		s += fmt.Sprintf(" AUTO_SUSPEND=%d", int64(a.AutoSuspend.Round(time.Second)/time.Second))
	}
	if a.AutoResume != nil {
		s += fmt.Sprintf(" AUTO_RESUME=%v", *a.AutoResume)
	}
	if a.Suspend {
		s += " SUSPEND"
	}
	if a.Resume {
		s += " RESUME"
	}
	return s
}

// Apply returns a copy of c with the alteration applied.
func (a Alteration) Apply(c Config) Config {
	if a.Size != nil {
		c.Size = *a.Size
	}
	if a.MinClusters != nil {
		c.MinClusters = *a.MinClusters
	}
	if a.MaxClusters != nil {
		c.MaxClusters = *a.MaxClusters
	}
	if a.Policy != nil {
		c.Policy = *a.Policy
	}
	if a.AutoSuspend != nil {
		// Whole seconds only, matching the rendered statement: a
		// non-integral duration rounds to the nearest second in both
		// places, so audit log and configuration always agree.
		c.AutoSuspend = a.AutoSuspend.Round(time.Second)
	}
	if a.AutoResume != nil {
		c.AutoResume = *a.AutoResume
	}
	return c
}

// Helper constructors for pointer fields, so call sites read cleanly.

// SizeP returns a pointer to s, for building Alterations.
func SizeP(s Size) *Size { return &s }

// IntP returns a pointer to n, for building Alterations.
func IntP(n int) *int { return &n }

// PolicyP returns a pointer to p, for building Alterations.
func PolicyP(p ScalingPolicy) *ScalingPolicy { return &p }

// DurationP returns a pointer to d, for building Alterations.
func DurationP(d time.Duration) *time.Duration { return &d }

// BoolP returns a pointer to b, for building Alterations.
func BoolP(b bool) *bool { return &b }
