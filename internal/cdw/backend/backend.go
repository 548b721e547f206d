// Package backend defines the control-plane surface of a cloud data
// warehouse provider: which configuration knobs exist, how billing is
// quantized, how slowly capacity comes up, and how fine-grained the
// metering view is. The cdw simulator executes against this interface,
// so the optimizer's decision surface is provider-agnostic while the
// provider-specific semantics (Snowflake's 60-second minimum, node-hour
// quanta, missing auto-suspend, …) stay explicit instead of being baked
// into the state machine.
//
// The package deliberately does not import kwo/internal/cdw: concrete
// backends and the cdw engine both depend on it, never the other way
// around.
package backend

import (
	"strings"
	"time"
)

// Capability is a bitset of optional control-plane features. A backend
// that lacks a capability must reject — not silently ignore — any
// configuration or ALTER that depends on it.
type Capability uint32

const (
	// CapAutoSuspend: the provider can suspend an idle warehouse
	// automatically after a configured idle period (AUTO_SUSPEND).
	CapAutoSuspend Capability = 1 << iota
	// CapAutoResume: a suspended warehouse resumes on query arrival
	// (AUTO_RESUME) instead of rejecting queries.
	CapAutoResume
	// CapMultiCluster: the warehouse can scale out to more than one
	// cluster (MIN/MAX_CLUSTER_COUNT > 1, SCALING_POLICY).
	CapMultiCluster
	// CapResize: the warehouse size can be changed after creation.
	CapResize
)

var capNames = []struct {
	c    Capability
	name string
}{
	{CapAutoSuspend, "auto-suspend"},
	{CapAutoResume, "auto-resume"},
	{CapMultiCluster, "multi-cluster"},
	{CapResize, "resize"},
}

// String renders the set as a "+"-joined list of feature names.
func (c Capability) String() string {
	var parts []string
	for _, e := range capNames {
		if c&e.c != 0 {
			parts = append(parts, e.name)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}

// CapabilitiesOf folds a backend's Has answers into one bitset, for
// callers that gate many decisions and want a single cached mask.
func CapabilitiesOf(b Backend) Capability {
	var set Capability
	for _, e := range capNames {
		if b.Has(e.c) {
			set |= e.c
		}
	}
	return set
}

// BillingRule describes how a provider turns cluster runtime into
// billed time. Both fields may be zero (bill exactly the seconds used).
type BillingRule struct {
	// Quantum, when positive, rounds each cluster run's billed duration
	// up to the next multiple (node-hour style billing). Zero bills the
	// exact duration.
	Quantum time.Duration
	// MinPerStart, when positive, is the minimum billed per cluster
	// start (Snowflake's 60-second resume minimum). Zero means no
	// minimum.
	MinPerStart time.Duration
}

// BilledEnd applies the rule to one cluster run [start, end): the
// MinPerStart floor first, then the Quantum round-up. The result is
// never before end.
func (r BillingRule) BilledEnd(start, end time.Time) time.Time {
	if end.Before(start) {
		end = start
	}
	if r.MinPerStart > 0 {
		if min := start.Add(r.MinPerStart); end.Before(min) {
			end = min
		}
	}
	if r.Quantum > 0 {
		d := end.Sub(start)
		if rem := d % r.Quantum; rem != 0 {
			end = start.Add(d - rem + r.Quantum)
		}
	}
	return end
}

// Backend is one provider's control-plane surface. Implementations must
// be stateless and safe for concurrent use: the same value is shared by
// every account and meter of a simulation, and by the costmodel's
// counterfactual replay.
type Backend interface {
	// Name is the stable lowercase identifier used by registries, CLI
	// flags, and fleet tenant profiles.
	Name() string
	// Has reports whether the provider supports the capability.
	Has(Capability) bool
	// Billing returns the provider's billing quantization rule.
	Billing() BillingRule
	// ResumeDelay maps the simulator's base resume delay to this
	// provider's (providers with slow cluster provisioning stretch it).
	ResumeDelay(base time.Duration) time.Duration
	// ClusterStartDelay maps the base scale-out start delay likewise.
	ClusterStartDelay(base time.Duration) time.Duration
	// MeteringGranularity is the bucket width of the provider's billing
	// history view (Snowflake's WAREHOUSE_METERING_HISTORY is hourly).
	MeteringGranularity() time.Duration
}
