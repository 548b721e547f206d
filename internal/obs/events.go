package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"
)

// EventKind is the typed vocabulary of the trace bus. Every state
// transition an operator would otherwise have to poll for becomes an
// event, so nothing that happens between polls is lost.
type EventKind string

const (
	// EventDecision — a smart-model tick decided to act (apply an
	// action, enforce a constraint, or revert); pure no-op ticks are
	// counted in metrics but not traced.
	EventDecision EventKind = "decision"
	// EventActionApplied — an ALTER landed on the warehouse.
	EventActionApplied EventKind = "action-applied"
	// EventActionRetried — a failed ALTER was scheduled for retry.
	EventActionRetried EventKind = "action-retried"
	// EventActionFailed — an operation was abandoned (exhausted,
	// permanent error, superseded, or aborted by the retry gate).
	EventActionFailed EventKind = "action-failed"
	// EventBreakerOpened — the per-warehouse circuit breaker tripped.
	EventBreakerOpened EventKind = "breaker-opened"
	// EventBreakerClosed — the breaker cooldown elapsed.
	EventBreakerClosed EventKind = "breaker-closed"
	// EventDegradedEnter — the engine entered degraded (safe) mode.
	EventDegradedEnter EventKind = "degraded-enter"
	// EventDegradedExit — the engine recovered from degraded mode.
	EventDegradedExit EventKind = "degraded-exit"
	// EventMonitorBackoff — the self-correction monitor reverted or
	// suppressed an optimization after a performance regression.
	EventMonitorBackoff EventKind = "monitor-backoff"
	// EventInvoice — a billing period closed and an invoice was cut.
	EventInvoice EventKind = "invoice"
	// EventFaultInjected — the simulated warehouse injected a fault
	// (failed ALTER, lost acknowledgment, billing outage).
	EventFaultInjected EventKind = "fault-injected"
	// EventIngestFailed — a billing-history pull failed.
	EventIngestFailed EventKind = "ingest-failed"
)

// Attr is one ordered key/value annotation on an event. A slice of
// attrs (not a map) keeps JSONL rendering deterministic.
type Attr struct {
	Key   string
	Value string
}

// A builds a string attr.
func A(key, value string) Attr { return Attr{Key: key, Value: value} }

// AInt builds an integer attr.
func AInt(key string, v int) Attr { return Attr{Key: key, Value: strconv.Itoa(v)} }

// AFloat builds a float attr with shortest round-trip formatting.
func AFloat(key string, v float64) Attr {
	return Attr{Key: key, Value: strconv.FormatFloat(v, 'g', -1, 64)}
}

// ADur builds a duration attr.
func ADur(key string, d time.Duration) Attr { return Attr{Key: key, Value: d.String()} }

// Event is one entry on the trace bus. Time always comes from the
// simulation clock.
type Event struct {
	Seq       uint64
	Time      time.Time
	Kind      EventKind
	Warehouse string
	Attrs     []Attr
}

// Attr returns the value of the named attribute, or "".
func (e Event) Attr(key string) string {
	for _, a := range e.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// String renders a compact single-line form for logs and dashboards.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s #%d %s", e.Time.Format("2006-01-02T15:04:05Z07:00"), e.Seq, e.Kind)
	if e.Warehouse != "" {
		fmt.Fprintf(&b, " wh=%s", e.Warehouse)
	}
	for _, a := range e.Attrs {
		fmt.Fprintf(&b, " %s=%s", a.Key, a.Value)
	}
	return b.String()
}

// appendJSON appends the event as one deterministic JSON object
// (fixed field order, attrs in emission order) to b.
func (e Event) appendJSON(b []byte) []byte {
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, e.Seq, 10)
	b = append(b, `,"time":"`...)
	b = e.Time.AppendFormat(b, time.RFC3339Nano)
	b = append(b, `","kind":`...)
	b = strconv.AppendQuote(b, string(e.Kind))
	if e.Warehouse != "" {
		b = append(b, `,"warehouse":`...)
		b = strconv.AppendQuote(b, e.Warehouse)
	}
	if len(e.Attrs) > 0 {
		b = append(b, `,"attrs":{`...)
		for i, a := range e.Attrs {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendQuote(b, a.Key)
			b = append(b, ':')
			b = strconv.AppendQuote(b, a.Value)
		}
		b = append(b, '}')
	}
	return append(b, '}')
}

// JSON returns the deterministic single-line JSON form.
func (e Event) JSON() string { return string(e.appendJSON(nil)) }

// Bus is a ring-buffered event stream. Cumulative per-kind counts
// survive ring wrap, so invariant checks can compare totals against
// the engine's authoritative counters even on long runs.
type Bus struct {
	mu     sync.Mutex
	clock  func() time.Time
	ring   []Event
	next   int
	filled bool
	seq    uint64
	counts map[EventKind]uint64

	// The output, under outMu rather than mu so ring readers never
	// wait on a slow writer. line is the reused render buffer.
	outMu  sync.Mutex
	out    io.Writer
	outErr error
	line   []byte
}

// DefaultRingSize is the event capacity of a bus unless overridden.
const DefaultRingSize = 1024

// NewBus builds a bus reading timestamps from clock. capacity <= 0
// uses DefaultRingSize.
func NewBus(clock func() time.Time, capacity int) *Bus {
	if capacity <= 0 {
		capacity = DefaultRingSize
	}
	return &Bus{
		clock:  clock,
		ring:   make([]Event, capacity),
		counts: make(map[EventKind]uint64),
	}
}

// SetOutput makes the bus write every later event to w as its JSON
// line (Event.JSON and a newline), with one Write per event, in
// emission order when one goroutine emits at a time. The first failed
// Write stops the output, and Err reports it. A nil w stops writing.
func (b *Bus) SetOutput(w io.Writer) {
	if b == nil {
		return
	}
	b.outMu.Lock()
	b.out, b.outErr = w, nil
	b.outMu.Unlock()
}

// Err returns the error of the Write that stopped the output, or nil.
func (b *Bus) Err() error {
	if b == nil {
		return nil
	}
	b.outMu.Lock()
	defer b.outMu.Unlock()
	return b.outErr
}

// Emit appends an event stamped with the bus clock.
func (b *Bus) Emit(kind EventKind, warehouse string, attrs ...Attr) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.seq++
	ev := Event{Seq: b.seq, Time: b.clock(), Kind: kind, Warehouse: warehouse, Attrs: attrs}
	b.ring[b.next] = ev
	b.next++
	if b.next == len(b.ring) {
		b.next = 0
		b.filled = true
	}
	b.counts[kind]++
	b.mu.Unlock()
	b.outMu.Lock()
	if b.out != nil && b.outErr == nil {
		b.line = append(ev.appendJSON(b.line[:0]), '\n')
		_, b.outErr = b.out.Write(b.line)
	}
	b.outMu.Unlock()
}

// Recent returns up to n most recent events, oldest first.
func (b *Bus) Recent(n int) []Event {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	size := b.next
	if b.filled {
		size = len(b.ring)
	}
	if n > size {
		n = size
	}
	out := make([]Event, 0, n)
	start := b.next - n
	if start < 0 {
		start += len(b.ring)
	}
	for i := 0; i < n; i++ {
		out = append(out, b.ring[(start+i)%len(b.ring)])
	}
	return out
}

// KindCount returns the cumulative number of events of one kind,
// including events that have fallen out of the ring.
func (b *Bus) KindCount(kind EventKind) uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.counts[kind]
}

// Total returns the cumulative number of events emitted.
func (b *Bus) Total() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}
