package cdw

import (
	"sort"
	"time"

	"kwo/internal/cdw/backend"
	"kwo/internal/cdw/backend/snowflake"
)

// MinBilledClusterTime is the minimum billed duration each time a
// cluster starts, matching Snowflake's 60-second minimum on every
// warehouse resume or cluster start. Backends other than Snowflake
// carry their own rule; see backend.BillingRule.
const MinBilledClusterTime = snowflake.MinBilledClusterTime

// MeterSegment is one contiguous billed interval for one cluster at one
// size. A cluster that runs across a resize produces multiple segments.
type MeterSegment struct {
	Warehouse string
	ClusterID int
	Size      Size
	Start     time.Time
	End       time.Time // zero while the segment is open
	// MinimumApplied marks the segment that opened a cluster run (which
	// carries the backend's per-start billing minimum, when its billing
	// rule has one).
	MinimumApplied bool
	// MinBilledUntil, when non-zero, extends the billed interval to at
	// least this instant — the per-start billing minimum at run start,
	// or the quantum round-up when the run stops. A resize inside the
	// minimum window hands the remainder to the post-resize segment, so
	// a cluster run's billed intervals never overlap.
	MinBilledUntil time.Time
}

// BilledEnd returns the end of the billed interval, applying any
// remaining cluster-start minimum carried by this segment.
func (s MeterSegment) BilledEnd() time.Time { return s.billedEnd() }

func (s MeterSegment) billedEnd() time.Time {
	end := s.End
	if !s.MinBilledUntil.IsZero() && end.Before(s.MinBilledUntil) {
		end = s.MinBilledUntil
	}
	return end
}

// Credits returns the credits consumed by the segment.
func (s MeterSegment) Credits() float64 {
	return s.Size.CreditsPerHour() * s.billedEnd().Sub(s.Start).Hours()
}

// Meter is the billing ledger for one warehouse. It accumulates
// segments as clusters start, stop and resize, and answers aggregate
// credit queries used both for "actual" billing and by the cost model.
type Meter struct {
	warehouse string
	rule      backend.BillingRule
	closed    []MeterSegment
	open      map[int]*MeterSegment // by cluster ID
	runStart  map[int]time.Time     // run start per open cluster (for quantum rounding)
}

// NewMeter returns an empty ledger for the named warehouse, billing
// under the default Snowflake rule (per-second with a 60s minimum per
// cluster start).
func NewMeter(warehouse string) *Meter {
	return NewMeterWithRule(warehouse, backend.BillingRule{MinPerStart: MinBilledClusterTime})
}

// NewMeterWithRule returns an empty ledger billing under the given
// backend billing rule.
func NewMeterWithRule(warehouse string, rule backend.BillingRule) *Meter {
	return &Meter{
		warehouse: warehouse,
		rule:      rule,
		open:      make(map[int]*MeterSegment),
		runStart:  make(map[int]time.Time),
	}
}

// StartCluster opens metering for a cluster at the given size. newStart
// marks a genuine cluster start (resume or scale-out), which carries the
// rule's per-start billing minimum; a resize reopening is not a new
// start.
func (m *Meter) StartCluster(clusterID int, size Size, at time.Time, newStart bool) {
	seg := &MeterSegment{
		Warehouse: m.warehouse,
		ClusterID: clusterID,
		Size:      size,
		Start:     at,
	}
	if newStart {
		seg.MinimumApplied = true
		if m.rule.MinPerStart > 0 {
			seg.MinBilledUntil = at.Add(m.rule.MinPerStart)
		}
		m.runStart[clusterID] = at
	}
	m.open[clusterID] = seg
}

// StopCluster closes metering for a cluster. Under a quantum billing
// rule the run's billed time rounds up to the next whole quantum (at
// the final segment's size), extending the closing segment's billed
// interval.
func (m *Meter) StopCluster(clusterID int, at time.Time) {
	seg, ok := m.open[clusterID]
	if !ok {
		return
	}
	seg.End = at
	if m.rule.Quantum > 0 {
		if rs, ok := m.runStart[clusterID]; ok {
			if end := m.rule.BilledEnd(rs, at); end.After(seg.billedEnd()) {
				seg.MinBilledUntil = end
			}
		}
	}
	m.closed = append(m.closed, *seg)
	delete(m.open, clusterID)
	delete(m.runStart, clusterID)
}

// Resize closes every open segment at the old size and reopens it at the
// new size, preserving the billing-minimum marker on the segment that
// carried it (the minimum applies to the cluster run, not the size).
func (m *Meter) Resize(newSize Size, at time.Time) {
	ids := make([]int, 0, len(m.open))
	for id := range m.open {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		seg := m.open[id]
		if seg.Size == newSize {
			continue
		}
		closed := *seg
		closed.End = at
		next := &MeterSegment{
			Warehouse: m.warehouse,
			ClusterID: id,
			Size:      newSize,
			Start:     at,
		}
		// The 60-second minimum belongs to the cluster run. If the run's
		// minimum window is still open, the remainder moves to the
		// post-resize segment (billed at the new size); otherwise the
		// closed segment bills exactly its actual duration. Either way
		// the run's billed intervals never overlap.
		if closed.MinBilledUntil.After(at) {
			next.MinBilledUntil = closed.MinBilledUntil
			closed.MinBilledUntil = time.Time{}
		}
		m.closed = append(m.closed, closed)
		m.open[id] = next
	}
}

// ActiveClusters returns the number of clusters currently metering.
func (m *Meter) ActiveClusters() int { return len(m.open) }

// Segments returns all closed segments plus snapshots of open segments
// truncated at now. The result is sorted by start time.
func (m *Meter) Segments(now time.Time) []MeterSegment {
	out := make([]MeterSegment, 0, len(m.closed)+len(m.open))
	out = append(out, m.closed...)
	for _, seg := range m.open {
		snap := *seg
		snap.End = now
		out = append(out, snap)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start.Equal(out[j].Start) {
			return out[i].ClusterID < out[j].ClusterID
		}
		return out[i].Start.Before(out[j].Start)
	})
	return out
}

// CreditsBetween returns the credits billed in [from, to), prorating
// segments that straddle the boundaries. now truncates open segments.
func (m *Meter) CreditsBetween(from, to, now time.Time) float64 {
	var total float64
	for _, seg := range m.Segments(now) {
		total += segmentCreditsBetween(seg, from, to)
	}
	return total
}

func segmentCreditsBetween(seg MeterSegment, from, to time.Time) float64 {
	end := seg.billedEnd()
	start := seg.Start
	if start.Before(from) {
		start = from
	}
	if end.After(to) {
		end = to
	}
	if !end.After(start) {
		return 0
	}
	return seg.Size.CreditsPerHour() * end.Sub(start).Hours()
}

// TotalCredits returns all credits billed so far.
func (m *Meter) TotalCredits(now time.Time) float64 {
	var total float64
	for _, seg := range m.Segments(now) {
		total += seg.Credits()
	}
	return total
}

// HourlyRecord is one row of the billing history: credits billed to the
// warehouse during one clock hour. It mirrors Snowflake's
// WAREHOUSE_METERING_HISTORY granularity.
type HourlyRecord struct {
	Warehouse string
	HourStart time.Time
	Credits   float64
}

// Hourly aggregates billed credits into clock-hour buckets over
// [from, to). Hours with zero credits are included so time series line
// up across warehouses. Runs in one pass over the segment list.
func (m *Meter) Hourly(from, to, now time.Time) []HourlyRecord {
	from = from.Truncate(time.Hour)
	if !to.After(from) {
		return nil
	}
	n := int((to.Sub(from) + time.Hour - 1) / time.Hour)
	buckets := make([]float64, n)
	for _, seg := range m.Segments(now) {
		rate := seg.Size.CreditsPerHour()
		start, end := seg.Start, seg.billedEnd()
		if start.Before(from) {
			start = from
		}
		if end.After(to) {
			end = to
		}
		for start.Before(end) {
			idx := int(start.Sub(from) / time.Hour)
			hourEnd := from.Add(time.Duration(idx+1) * time.Hour)
			chunk := end
			if chunk.After(hourEnd) {
				chunk = hourEnd
			}
			buckets[idx] += rate * chunk.Sub(start).Hours()
			start = chunk
		}
	}
	out := make([]HourlyRecord, n)
	for i := range buckets {
		out[i] = HourlyRecord{
			Warehouse: m.warehouse,
			HourStart: from.Add(time.Duration(i) * time.Hour),
			Credits:   buckets[i],
		}
	}
	return out
}

// Daily aggregates billed credits into 24-hour buckets starting at from.
func (m *Meter) Daily(from time.Time, days int, now time.Time) []float64 {
	out := make([]float64, days)
	for d := 0; d < days; d++ {
		s := from.Add(time.Duration(d) * 24 * time.Hour)
		out[d] = m.CreditsBetween(s, s.Add(24*time.Hour), now)
	}
	return out
}
