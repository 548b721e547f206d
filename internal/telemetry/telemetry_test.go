package telemetry

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"kwo/internal/cdw"
	"kwo/internal/simclock"
)

var t0 = simclock.Epoch

func rec(wh string, submit time.Time, queue, exec time.Duration, tmpl uint64, size cdw.Size, cold bool) cdw.QueryRecord {
	start := submit.Add(queue)
	return cdw.QueryRecord{
		Warehouse:     wh,
		TemplateHash:  tmpl,
		SubmitTime:    submit,
		StartTime:     start,
		EndTime:       start.Add(exec),
		QueueDuration: queue,
		ExecDuration:  exec,
		Size:          size,
		Clusters:      1,
		ColdRead:      cold,
		BytesScanned:  100,
	}
}

func TestStoreRouting(t *testing.T) {
	s := NewStore()
	s.OnQuery(rec("A", t0, 0, time.Second, 1, cdw.SizeXSmall, false))
	s.OnQuery(rec("B", t0, 0, time.Second, 1, cdw.SizeXSmall, false))
	s.OnQuery(rec("A", t0.Add(time.Minute), 0, time.Second, 2, cdw.SizeXSmall, false))
	if got := s.Warehouses(); len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Fatalf("warehouses = %v", got)
	}
	if n := len(s.Log("A").Queries); n != 2 {
		t.Fatalf("A queries = %d, want 2", n)
	}
	if s.Log("missing") != nil {
		t.Fatal("missing warehouse should be nil")
	}
}

func TestQueriesBetween(t *testing.T) {
	s := NewStore()
	for i := 0; i < 10; i++ {
		s.OnQuery(rec("W", t0.Add(time.Duration(i)*time.Minute), 0, 30*time.Second, 1, cdw.SizeXSmall, false))
	}
	l := s.Log("W")
	got := l.QueriesBetweenView(t0.Add(2*time.Minute), t0.Add(5*time.Minute))
	// EndTimes are at i minutes + 30s; those in [2m, 5m) are i=2,3,4... i=1 ends at 1m30s <2m. i=4 ends 4m30s <5m.
	if len(got) != 3 {
		t.Fatalf("window rows = %d, want 3", len(got))
	}
}

func TestSubmittedBetweenSorted(t *testing.T) {
	s := NewStore()
	// Insert with out-of-order submit times (long query submitted first,
	// finishing last).
	s.OnQuery(rec("W", t0.Add(time.Minute), 0, 10*time.Second, 1, cdw.SizeXSmall, false))
	s.OnQuery(rec("W", t0, 0, 10*time.Minute, 2, cdw.SizeXSmall, false))
	got := s.Log("W").SubmittedBetween(t0, t0.Add(time.Hour))
	if len(got) != 2 || !got[0].SubmitTime.Equal(t0) {
		t.Fatalf("submit order wrong: %v", got)
	}
}

func TestStatsBasics(t *testing.T) {
	s := NewStore()
	// 10 queries: 1s exec each, no queue; 1 cold.
	for i := 0; i < 10; i++ {
		cold := i == 0
		s.OnQuery(rec("W", t0.Add(time.Duration(i)*time.Minute), 0, time.Second, uint64(i%2), cdw.SizeSmall, cold))
	}
	ws := s.Log("W").Stats(t0, t0.Add(time.Hour))
	if ws.Queries != 10 {
		t.Fatalf("queries = %d", ws.Queries)
	}
	if ws.ColdReads != 1 {
		t.Fatalf("cold = %d", ws.ColdReads)
	}
	if ws.AvgLatency != time.Second || ws.P99Latency != time.Second {
		t.Fatalf("latency avg=%v p99=%v", ws.AvgLatency, ws.P99Latency)
	}
	if ws.DistinctTemplates != 2 {
		t.Fatalf("distinct = %d", ws.DistinctTemplates)
	}
	if ws.QPH != 10.0 {
		t.Fatalf("QPH = %v", ws.QPH)
	}
	if ws.AvgSize != float64(cdw.SizeSmall) {
		t.Fatalf("avg size = %v", ws.AvgSize)
	}
}

func TestStatsPercentiles(t *testing.T) {
	s := NewStore()
	for i := 1; i <= 100; i++ {
		s.OnQuery(rec("W", t0.Add(time.Duration(i)*time.Second), 0,
			time.Duration(i)*time.Millisecond, 1, cdw.SizeXSmall, false))
	}
	ws := s.Log("W").Stats(t0, t0.Add(time.Hour))
	if ws.P50Latency != 50*time.Millisecond {
		t.Fatalf("p50 = %v", ws.P50Latency)
	}
	if ws.P99Latency != 99*time.Millisecond {
		t.Fatalf("p99 = %v", ws.P99Latency)
	}
	if ws.P95Latency != 95*time.Millisecond {
		t.Fatalf("p95 = %v", ws.P95Latency)
	}
}

func TestNewTemplatesDetection(t *testing.T) {
	s := NewStore()
	s.OnQuery(rec("W", t0, 0, time.Second, 1, cdw.SizeXSmall, false))
	s.OnQuery(rec("W", t0.Add(2*time.Hour), 0, time.Second, 1, cdw.SizeXSmall, false))
	s.OnQuery(rec("W", t0.Add(2*time.Hour), 0, time.Second, 99, cdw.SizeXSmall, false))
	ws := s.Log("W").Stats(t0.Add(time.Hour), t0.Add(3*time.Hour))
	if ws.NewTemplates != 1 {
		t.Fatalf("new templates = %d, want 1 (template 99)", ws.NewTemplates)
	}
	if ws.DistinctTemplates != 2 {
		t.Fatalf("distinct = %d, want 2", ws.DistinctTemplates)
	}
}

func TestEmptyStatsSafe(t *testing.T) {
	s := NewStore()
	var nilLog *WarehouseLog
	if ws := nilLog.Stats(t0, t0.Add(time.Hour)); ws.Queries != 0 {
		t.Fatal("nil log stats nonzero")
	}
	if got := nilLog.QueriesBetweenView(t0, t0.Add(time.Hour)); len(got) != 0 {
		t.Fatal("nil log returned queries")
	}
	ws := s.log("W").Stats(t0, t0.Add(time.Hour))
	if ws.Queries != 0 || ws.AvgLatency != 0 {
		t.Fatal("empty stats nonzero")
	}
}

func TestConfigAt(t *testing.T) {
	s := NewStore()
	initial := cdw.Config{Name: "W", Size: cdw.SizeLarge, MinClusters: 1, MaxClusters: 4}
	after1 := initial
	after1.Size = cdw.SizeSmall
	s.OnChange(cdw.ConfigChange{Time: t0.Add(time.Hour), Warehouse: "W", Before: initial, After: after1})
	after2 := after1
	after2.MaxClusters = 2
	s.OnChange(cdw.ConfigChange{Time: t0.Add(2 * time.Hour), Warehouse: "W", Before: after1, After: after2})

	l := s.Log("W")
	if got := l.ConfigAt(t0.Add(30*time.Minute), initial); got.Size != cdw.SizeLarge {
		t.Fatalf("config before changes = %v", got.Size)
	}
	if got := l.ConfigAt(t0.Add(90*time.Minute), initial); got.Size != cdw.SizeSmall || got.MaxClusters != 4 {
		t.Fatalf("config after first change wrong: %+v", got)
	}
	if got := l.ConfigAt(t0.Add(3*time.Hour), initial); got.MaxClusters != 2 {
		t.Fatalf("config after second change wrong: %+v", got)
	}
}

func TestTemplateObservations(t *testing.T) {
	s := NewStore()
	s.OnQuery(rec("W", t0, 0, 8*time.Second, 7, cdw.SizeXSmall, false))
	s.OnQuery(rec("W", t0.Add(time.Minute), 0, 4*time.Second, 7, cdw.SizeSmall, false))
	s.OnQuery(rec("W", t0.Add(2*time.Minute), 0, 2*time.Second, 8, cdw.SizeXSmall, true))
	obs := s.Log("W").TemplateObservations(t0, t0.Add(time.Hour))
	if len(obs[7]) != 2 || len(obs[8]) != 1 {
		t.Fatalf("observations = %v", obs)
	}
	if obs[7][1].Size != cdw.SizeSmall || obs[7][1].ExecSecs != 4 {
		t.Fatalf("obs fields wrong: %+v", obs[7][1])
	}
	if !obs[8][0].Cold {
		t.Fatal("cold flag lost")
	}
}

func TestGaps(t *testing.T) {
	s := NewStore()
	times := []time.Duration{0, 10 * time.Second, 40 * time.Second, 100 * time.Second}
	for i, d := range times {
		s.OnQuery(rec("W", t0.Add(d), 0, time.Second, uint64(i), cdw.SizeXSmall, false))
	}
	gaps := s.Log("W").Gaps(t0, t0.Add(time.Hour))
	want := []float64{10, 30, 60}
	if len(gaps) != 3 {
		t.Fatalf("gaps = %v", gaps)
	}
	for i := range want {
		if gaps[i] != want[i] {
			t.Fatalf("gaps = %v, want %v", gaps, want)
		}
	}
}

// Property: percentileDur is monotone in p and bounded by min/max.
func TestPropertyPercentile(t *testing.T) {
	f := func(raw []int64, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		p1 := float64(a%101) / 100
		p2 := float64(b%101) / 100
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		ds := make([]time.Duration, len(raw))
		for i, x := range raw {
			ds[i] = time.Duration(x)
		}
		lo, hi := ds[0], ds[0]
		for _, d := range ds {
			if d < lo {
				lo = d
			}
			if d > hi {
				hi = d
			}
		}
		v1, v2 := percentileDur(ds, p1), percentileDur(ds, p2)
		return v1 <= v2 && v1 >= lo && v2 <= hi
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Stats windows partition counts — the sum over consecutive
// windows equals the total.
func TestPropertySeriesPartition(t *testing.T) {
	f := func(offsets []uint16) bool {
		s := NewStore()
		for i, off := range offsets {
			at := t0.Add(time.Duration(off) * time.Second)
			s.OnQuery(rec("W", at, 0, time.Millisecond, uint64(i), cdw.SizeXSmall, false))
		}
		to := t0.Add(time.Duration(65536+1) * time.Second)
		total := s.Log("W").Stats(t0, to).Queries
		sum := 0
		for from := t0; from.Before(to); from = from.Add(1000 * time.Second) {
			end := from.Add(1000 * time.Second)
			if end.After(to) {
				end = to
			}
			sum += s.Log("W").Stats(from, end).Queries
		}
		return sum == total && total == len(offsets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBillingIngestion(t *testing.T) {
	s := NewStore()
	rows := []cdw.HourlyRecord{
		{Warehouse: "W", HourStart: t0, Credits: 1.5},
		{Warehouse: "W", HourStart: t0.Add(time.Hour), Credits: 2.5},
	}
	s.AddBilling("W", rows)
	l := s.Log("W")
	if got := l.BillingBetween(t0, t0.Add(2*time.Hour)); got != 4.0 {
		t.Fatalf("billing sum = %v, want 4", got)
	}
	// Re-ingesting an hour replaces it (idempotent overlapping pulls).
	s.AddBilling("W", []cdw.HourlyRecord{{Warehouse: "W", HourStart: t0, Credits: 9}})
	if got := l.BillingBetween(t0, t0.Add(time.Hour)); got != 9 {
		t.Fatalf("re-ingest did not replace: %v", got)
	}
	if len(l.Billing) != 2 {
		t.Fatalf("billing rows = %d, want 2", len(l.Billing))
	}
	if !l.LastBilledHour().Equal(t0.Add(time.Hour)) {
		t.Fatalf("last billed hour = %v", l.LastBilledHour())
	}
	var nilLog *WarehouseLog
	if nilLog.BillingBetween(t0, t0.Add(time.Hour)) != 0 || !nilLog.LastBilledHour().IsZero() {
		t.Fatal("nil log billing accessors wrong")
	}
}

func TestSnapshotPersistsBilling(t *testing.T) {
	s := NewStore()
	s.AddBilling("W", []cdw.HourlyRecord{{Warehouse: "W", HourStart: t0, Credits: 3.25}})
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Log("W").BillingBetween(t0, t0.Add(time.Hour)) != 3.25 {
		t.Fatal("billing lost in snapshot round trip")
	}
	if _, err := ReadSnapshot(strings.NewReader(`{"kind":"billing"}`)); err == nil {
		t.Fatal("billing line without payload accepted")
	}
}
