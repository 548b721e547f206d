// Package telemetry collects and serves the performance metadata KWO
// trains on: query history (arrival/queue/completion times, bytes
// scanned, sizes, cluster counts) and warehouse lifecycle events. Per
// the paper's security criterion C6 it never holds query text or user
// names — only their hashes, which the simulator produces from the
// start.
//
// The Store implements cdw.Listener, so subscribing it to an account
// mirrors pulling Snowflake's QUERY_HISTORY and metering views.
//
// The engine reads the log continuously (every monitor tick computes
// window stats, every savings estimate replays arrivals), so the log
// keeps derived indexes alongside the raw slices: a submit-order copy
// of the query records, per-record prefix aggregates, and first-seen
// template times. All range queries are binary-search based; none scan
// or sort the full log. See PERFORMANCE.md for the complexity budget.
package telemetry

import (
	"sort"
	"time"

	"kwo/internal/cdw"
	"kwo/internal/obs"
)

// Store accumulates telemetry for every warehouse of an account.
// A Store is not safe for concurrent use; the simulator delivers
// events from a single goroutine, and parallel experiment runners use
// one Store per scenario.
type Store struct {
	byWarehouse map[string]*WarehouseLog
	names       []string
	hub         *obs.Hub
}

// WarehouseLog is the telemetry of a single warehouse. Query records
// are kept sorted by EndTime (they arrive in completion order from the
// simulator).
//
// The exported slices may be read freely and extended by appending
// records in order (tests do); all other mutation must go through the
// Store's listener methods, or the derived indexes will silently
// diverge from the raw data.
type WarehouseLog struct {
	Name    string
	Queries []cdw.QueryRecord
	Events  []cdw.WarehouseEvent
	Changes []cdw.ConfigChange
	// Billing holds ingested billing-history rows (one per clock hour).
	Billing []cdw.HourlyRecord

	billingIdx map[int64]int // hour unix → index into Billing

	// Derived query indexes, maintained incrementally by OnQuery and
	// resynced lazily when Queries was extended directly.
	bySubmit []cdw.QueryRecord    // records ordered by (SubmitTime, EndTime, arrival)
	agg      []queryAgg           // agg[i] aggregates Queries[:i+1]
	firstEnd map[uint64]time.Time // template hash → earliest completion time
	subN     int                  // prefix of Queries folded into bySubmit/firstEnd

	// Change-log index state: the prefix of Changes verified to be in
	// nondecreasing time order (the audit log is, unless built by hand).
	chN      int
	chSorted bool

	// Billing index state: sortedness of the rows by hour plus the
	// running last-billed hour.
	billN      int
	billSorted bool
	billLast   time.Time

	// Reusable scratch for window statistics (percentile selection and
	// distinct-template counting), so a monitor tick allocates nothing
	// in steady state.
	latScratch   []time.Duration
	queueScratch []time.Duration
	distinct     map[uint64]struct{}

	// Cached obs instruments (nil when the store has no hub); resolved
	// once per warehouse so the per-query hot path does no label lookup.
	obsQueries *obs.Counter
	obsLatency *obs.Histogram
	obsQueue   *obs.Histogram
	obsBilling *obs.Counter
}

// queryAgg is the running total of every additive WindowStats input up
// to and including one query record. All fields are integers, so
// prefix differences are exact and window sums match a direct scan
// bit for bit.
type queryAgg struct {
	lat      time.Duration // queue + exec (TotalDuration)
	queue    time.Duration
	exec     time.Duration
	bytes    int64
	clusters int64
	size     int64
	cold     int64
	resumed  int64
}

func (a queryAgg) add(r cdw.QueryRecord) queryAgg {
	a.lat += r.TotalDuration()
	a.queue += r.QueueDuration
	a.exec += r.ExecDuration
	a.bytes += r.BytesScanned
	a.clusters += int64(r.Clusters)
	a.size += int64(r.Size)
	if r.ColdRead {
		a.cold++
	}
	if r.Resumed {
		a.resumed++
	}
	return a
}

func (a queryAgg) sub(b queryAgg) queryAgg {
	a.lat -= b.lat
	a.queue -= b.queue
	a.exec -= b.exec
	a.bytes -= b.bytes
	a.clusters -= b.clusters
	a.size -= b.size
	a.cold -= b.cold
	a.resumed -= b.resumed
	return a
}

// NewStore returns an empty telemetry store.
func NewStore() *Store {
	return &Store{byWarehouse: make(map[string]*WarehouseLog)}
}

func (s *Store) log(name string) *WarehouseLog {
	l, ok := s.byWarehouse[name]
	if !ok {
		l = &WarehouseLog{Name: name}
		s.byWarehouse[name] = l
		s.names = append(s.names, name)
	}
	if s.hub != nil && l.obsQueries == nil {
		l.obsQueries = s.hub.Queries.With(name)
		l.obsLatency = s.hub.QueryLatency.With(name)
		l.obsQueue = s.hub.QueryQueue.With(name)
		l.obsBilling = s.hub.BillingHours.With(name)
	}
	return l
}

// SetObs wires the observability hub: query counts, latency and queue
// histograms, and billing-row ingestion counters. Set it before the
// first event for complete counts; nil disables instrumentation.
func (s *Store) SetObs(h *obs.Hub) { s.hub = h }

// OnQuery implements cdw.Listener.
func (s *Store) OnQuery(r cdw.QueryRecord) {
	l := s.log(r.Warehouse)
	l.ensureQueryIndexes()
	n := len(l.Queries)
	if n > 0 && r.EndTime.Before(l.Queries[n-1].EndTime) {
		// Out-of-order completion (equal-time reordering from multiple
		// clusters): a single binary insertion keeps the slice sorted,
		// placing the record after every equal EndTime — exactly where a
		// stable re-sort of the whole slice would have put it.
		i := sort.Search(n, func(i int) bool {
			return l.Queries[i].EndTime.After(r.EndTime)
		})
		l.Queries = append(l.Queries, cdw.QueryRecord{})
		copy(l.Queries[i+1:], l.Queries[i:])
		l.Queries[i] = r
		// Prefix aggregates from the insertion point on are stale; the
		// next reader re-extends them over the shifted tail.
		l.agg = l.agg[:i]
	} else {
		l.Queries = append(l.Queries, r)
		var prev queryAgg
		if len(l.agg) > 0 {
			prev = l.agg[len(l.agg)-1]
		}
		l.agg = append(l.agg, prev.add(r))
	}
	// The submit index and first-seen map are position-independent, so
	// the new record folds in directly either way.
	l.indexSubmit(r)
	l.noteFirstEnd(r)
	l.subN++
	if l.obsQueries != nil {
		l.obsQueries.Inc()
		l.obsLatency.Observe(r.TotalDuration().Seconds())
		l.obsQueue.Observe(r.QueueDuration.Seconds())
	}
}

// OnChange implements cdw.Listener.
func (s *Store) OnChange(c cdw.ConfigChange) {
	s.log(c.Warehouse).Changes = append(s.log(c.Warehouse).Changes, c)
}

// OnWarehouseEvent implements cdw.Listener.
func (s *Store) OnWarehouseEvent(e cdw.WarehouseEvent) {
	s.log(e.Warehouse).Events = append(s.log(e.Warehouse).Events, e)
}

// Warehouses lists warehouses with telemetry, in first-seen order.
func (s *Store) Warehouses() []string {
	out := make([]string, len(s.names))
	copy(out, s.names)
	return out
}

// Log returns the telemetry of one warehouse (nil if none).
func (s *Store) Log(name string) *WarehouseLog { return s.byWarehouse[name] }

// ---------------------------------------------------------------------
// Derived-index maintenance.

// ensureQueryIndexes folds any directly appended records into the
// derived indexes. When Queries shrank or was rewritten wholesale the
// indexes are rebuilt from scratch.
func (l *WarehouseLog) ensureQueryIndexes() {
	if l.subN == len(l.Queries) && len(l.agg) == len(l.Queries) {
		return
	}
	if l.subN > len(l.Queries) {
		l.bySubmit = l.bySubmit[:0]
		l.agg = l.agg[:0]
		l.firstEnd = nil
		l.subN = 0
	}
	for _, r := range l.Queries[l.subN:] {
		l.indexSubmit(r)
		l.noteFirstEnd(r)
	}
	l.subN = len(l.Queries)
	if len(l.agg) > len(l.Queries) {
		l.agg = l.agg[:0]
	}
	for i := len(l.agg); i < len(l.Queries); i++ {
		var prev queryAgg
		if i > 0 {
			prev = l.agg[i-1]
		}
		l.agg = append(l.agg, prev.add(l.Queries[i]))
	}
}

// indexSubmit inserts r into the submit-order index. The key is
// (SubmitTime, EndTime) with insertion after every equal key, which
// reproduces the order a stable sort by SubmitTime over the
// EndTime-sorted log would yield.
func (l *WarehouseLog) indexSubmit(r cdw.QueryRecord) {
	i := sort.Search(len(l.bySubmit), func(i int) bool {
		q := &l.bySubmit[i]
		if !q.SubmitTime.Equal(r.SubmitTime) {
			return q.SubmitTime.After(r.SubmitTime)
		}
		return q.EndTime.After(r.EndTime)
	})
	l.bySubmit = append(l.bySubmit, cdw.QueryRecord{})
	copy(l.bySubmit[i+1:], l.bySubmit[i:])
	l.bySubmit[i] = r
}

// noteFirstEnd records the earliest completion time per template. The
// update is order-independent (it keeps the minimum), so late
// insertions need no index repair.
func (l *WarehouseLog) noteFirstEnd(r cdw.QueryRecord) {
	if l.firstEnd == nil {
		l.firstEnd = make(map[uint64]time.Time)
	}
	if t, ok := l.firstEnd[r.TemplateHash]; !ok || r.EndTime.Before(t) {
		l.firstEnd[r.TemplateHash] = r.EndTime
	}
}

// queryRange returns the index range of Queries with EndTime in
// [from, to).
func (l *WarehouseLog) queryRange(from, to time.Time) (lo, hi int) {
	lo = sort.Search(len(l.Queries), func(i int) bool {
		return !l.Queries[i].EndTime.Before(from)
	})
	hi = sort.Search(len(l.Queries), func(i int) bool {
		return !l.Queries[i].EndTime.Before(to)
	})
	return lo, hi
}

// ---------------------------------------------------------------------
// Range queries.

// QueriesBetweenView returns the query records with EndTime in
// [from, to) as a sub-slice view of the log: no copy, no allocation.
// The view is read-only and valid until the next record is ingested.
func (l *WarehouseLog) QueriesBetweenView(from, to time.Time) []cdw.QueryRecord {
	if l == nil {
		return nil
	}
	lo, hi := l.queryRange(from, to)
	if lo >= hi {
		return nil
	}
	return l.Queries[lo:hi:hi]
}

// SubmittedBetween returns query records with SubmitTime in [from, to),
// sorted by SubmitTime. Used by the cost model's replay, which walks
// arrivals, not completions.
//
// The result is a sub-slice view of the submit-order index: two binary
// searches, no copy, no sort. It is read-only and valid until the next
// record is ingested.
func (l *WarehouseLog) SubmittedBetween(from, to time.Time) []cdw.QueryRecord {
	if l == nil {
		return nil
	}
	l.ensureQueryIndexes()
	lo := sort.Search(len(l.bySubmit), func(i int) bool {
		return !l.bySubmit[i].SubmitTime.Before(from)
	})
	hi := sort.Search(len(l.bySubmit), func(i int) bool {
		return !l.bySubmit[i].SubmitTime.Before(to)
	})
	if lo >= hi {
		return nil
	}
	return l.bySubmit[lo:hi:hi]
}

// ensureChangeIndex verifies (incrementally) that the change log is in
// nondecreasing time order, which the audit log produced by a live
// account always is. Sorted logs get binary-search range queries;
// hand-built unsorted ones fall back to a scan.
func (l *WarehouseLog) ensureChangeIndex() {
	if l.chN == len(l.Changes) {
		return
	}
	if l.chN > len(l.Changes) {
		l.chN, l.chSorted = 0, false
	}
	if l.chN == 0 {
		l.chSorted = true
	}
	for i := l.chN; i < len(l.Changes); i++ {
		if i > 0 && l.Changes[i].Time.Before(l.Changes[i-1].Time) {
			l.chSorted = false
		}
	}
	l.chN = len(l.Changes)
}

// ChangesBetweenView returns the config changes in [from, to) as a
// read-only sub-slice view when the change log is time-sorted (the
// audit log always is), falling back to a filtered copy otherwise.
func (l *WarehouseLog) ChangesBetweenView(from, to time.Time) []cdw.ConfigChange {
	if l == nil {
		return nil
	}
	l.ensureChangeIndex()
	if !l.chSorted {
		var out []cdw.ConfigChange
		for _, c := range l.Changes {
			if !c.Time.Before(from) && c.Time.Before(to) {
				out = append(out, c)
			}
		}
		return out
	}
	lo := sort.Search(len(l.Changes), func(i int) bool {
		return !l.Changes[i].Time.Before(from)
	})
	hi := sort.Search(len(l.Changes), func(i int) bool {
		return !l.Changes[i].Time.Before(to)
	})
	if lo >= hi {
		return nil
	}
	return l.Changes[lo:hi:hi]
}

// ConfigAt reconstructs the warehouse configuration in effect at t from
// the change log, given the earliest known configuration.
func (l *WarehouseLog) ConfigAt(t time.Time, initial cdw.Config) cdw.Config {
	cfg := initial
	if l == nil {
		return cfg
	}
	l.ensureChangeIndex()
	if l.chSorted {
		// Last change with Time <= t.
		i := sort.Search(len(l.Changes), func(i int) bool {
			return l.Changes[i].Time.After(t)
		})
		if i > 0 {
			cfg = l.Changes[i-1].After
		}
		return cfg
	}
	for _, c := range l.Changes {
		if c.Time.After(t) {
			break
		}
		cfg = c.After
	}
	return cfg
}

// AddBilling ingests billing-history rows (§6.1: "The metadata used in
// training comes from two sources: query history and billing history").
// Rows are keyed by hour; re-ingesting an hour replaces it, so periodic
// pulls can safely overlap.
func (s *Store) AddBilling(warehouse string, rows []cdw.HourlyRecord) {
	l := s.log(warehouse)
	if l.billingIdx == nil {
		l.billingIdx = make(map[int64]int)
	}
	for _, r := range rows {
		key := r.HourStart.Unix()
		if i, ok := l.billingIdx[key]; ok {
			l.Billing[i] = r
			continue
		}
		l.billingIdx[key] = len(l.Billing)
		l.Billing = append(l.Billing, r)
		if l.obsBilling != nil {
			l.obsBilling.Inc()
		}
	}
}

// ensureBillingIndex verifies (incrementally) that the billing rows are
// in increasing hour order — they are when ingested by the engine's
// periodic pull — and tracks the most recent billed hour.
func (l *WarehouseLog) ensureBillingIndex() {
	if l.billN == len(l.Billing) {
		return
	}
	if l.billN > len(l.Billing) {
		l.billN, l.billSorted, l.billLast = 0, false, time.Time{}
	}
	if l.billN == 0 {
		l.billSorted = true
	}
	for i := l.billN; i < len(l.Billing); i++ {
		if i > 0 && l.Billing[i].HourStart.Before(l.Billing[i-1].HourStart) {
			l.billSorted = false
		}
		if l.Billing[i].HourStart.After(l.billLast) {
			l.billLast = l.Billing[i].HourStart
		}
	}
	l.billN = len(l.Billing)
}

// BillingBetween sums ingested billing credits for hours starting in
// [from, to).
func (l *WarehouseLog) BillingBetween(from, to time.Time) float64 {
	if l == nil {
		return 0
	}
	l.ensureBillingIndex()
	var total float64
	if l.billSorted {
		lo := sort.Search(len(l.Billing), func(i int) bool {
			return !l.Billing[i].HourStart.Before(from)
		})
		hi := sort.Search(len(l.Billing), func(i int) bool {
			return !l.Billing[i].HourStart.Before(to)
		})
		for _, r := range l.Billing[lo:hi] {
			total += r.Credits
		}
		return total
	}
	for _, r := range l.Billing {
		if !r.HourStart.Before(from) && r.HourStart.Before(to) {
			total += r.Credits
		}
	}
	return total
}

// LastBilledHour returns the most recent ingested hour start (zero time
// when no billing has been ingested).
func (l *WarehouseLog) LastBilledHour() time.Time {
	if l == nil {
		return time.Time{}
	}
	l.ensureBillingIndex()
	return l.billLast
}
