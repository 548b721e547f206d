package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"kwo/internal/cdw"
)

// --- naive reference implementations (the pre-index semantics) ------

// naiveSubmittedBetween is the original implementation: full scan plus
// a stable sort by SubmitTime over the EndTime-ordered log.
func naiveSubmittedBetween(l *WarehouseLog, from, to time.Time) []cdw.QueryRecord {
	var out []cdw.QueryRecord
	for _, q := range l.Queries {
		if !q.SubmitTime.Before(from) && q.SubmitTime.Before(to) {
			out = append(out, q)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].SubmitTime.Before(out[j].SubmitTime)
	})
	return out
}

// naivePercentile is the original sort-based nearest-rank quantile.
func naivePercentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// naiveStats recomputes WindowStats exactly the way the pre-index
// implementation did: full-log scan for seen-before templates, a copy
// of the window, and sort-based percentiles.
func naiveStats(l *WarehouseLog, from, to time.Time) WindowStats {
	ws := WindowStats{From: from, To: to}
	var recs []cdw.QueryRecord
	for _, q := range l.Queries {
		if !q.EndTime.Before(from) && q.EndTime.Before(to) {
			recs = append(recs, q)
		}
	}
	ws.Queries = len(recs)
	if hours := to.Sub(from).Hours(); hours > 0 {
		ws.QPH = float64(len(recs)) / hours
	}
	if len(recs) == 0 {
		return ws
	}
	seenBefore := make(map[uint64]bool)
	for _, q := range l.Queries {
		if q.EndTime.Before(from) {
			seenBefore[q.TemplateHash] = true
		}
	}
	var lats, queues []float64
	var sumLat, sumQueue, sumExec time.Duration
	distinct := make(map[uint64]bool)
	var sumClusters, sumSize float64
	for _, r := range recs {
		lat := r.TotalDuration()
		lats = append(lats, float64(lat))
		queues = append(queues, float64(r.QueueDuration))
		sumLat += lat
		sumQueue += r.QueueDuration
		sumExec += r.ExecDuration
		ws.BytesTotal += r.BytesScanned
		if r.ColdRead {
			ws.ColdReads++
		}
		if r.Resumed {
			ws.Resumes++
		}
		if !distinct[r.TemplateHash] {
			distinct[r.TemplateHash] = true
			if !seenBefore[r.TemplateHash] {
				ws.NewTemplates++
			}
		}
		sumClusters += float64(r.Clusters)
		if r.Clusters > ws.MaxClusters {
			ws.MaxClusters = r.Clusters
		}
		sumSize += float64(r.Size)
	}
	n := len(recs)
	ws.DistinctTemplates = len(distinct)
	ws.AvgLatency = sumLat / time.Duration(n)
	ws.AvgQueue = sumQueue / time.Duration(n)
	ws.AvgExec = sumExec / time.Duration(n)
	ws.AvgClusters = sumClusters / float64(n)
	ws.AvgSize = sumSize / float64(n)
	ws.P50Latency = time.Duration(naivePercentile(lats, 0.50))
	ws.P95Latency = time.Duration(naivePercentile(lats, 0.95))
	ws.P99Latency = time.Duration(naivePercentile(lats, 0.99))
	ws.P99Queue = time.Duration(naivePercentile(queues, 0.99))
	return ws
}

func sameRecords(a, b []cdw.QueryRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// adversarialStore drives OnQuery with the arrival patterns a
// multi-cluster warehouse actually produces: equal submit timestamps
// (burst arrivals), equal end timestamps (lockstep completion across
// clusters), and out-of-order completions (a later-submitted query on
// a fast cluster finishing before an earlier one).
func adversarialStore(seed int64, n int) *Store {
	rng := rand.New(rand.NewSource(seed))
	s := NewStore()
	base := time.Date(2023, 1, 2, 0, 0, 0, 0, time.UTC)
	end := base
	for i := 0; i < n; i++ {
		// Coarse timestamps force frequent ties.
		submit := base.Add(time.Duration(rng.Intn(n)) * time.Minute)
		dur := time.Duration(rng.Intn(10)) * time.Minute
		// Completions wander backwards up to 30 minutes.
		e := submit.Add(dur)
		if e.After(end) {
			end = e
		} else if rng.Intn(2) == 0 {
			e = end // lockstep tie on EndTime
		}
		s.OnQuery(cdw.QueryRecord{
			Warehouse:     "W",
			TemplateHash:  uint64(rng.Intn(7)),
			SubmitTime:    submit,
			StartTime:     submit,
			EndTime:       e,
			QueueDuration: time.Duration(rng.Intn(90)) * time.Second,
			ExecDuration:  dur,
			BytesScanned:  int64(rng.Intn(1 << 20)),
			ColdRead:      rng.Intn(4) == 0,
			Resumed:       rng.Intn(8) == 0,
			Clusters:      rng.Intn(3) + 1,
			Size:          cdw.Size(rng.Intn(4)),
		})
	}
	return s
}

// The submit index must agree with the naive scan-and-stable-sort under
// adversarial arrival orders, for full-range and partial windows alike.
func TestSubmitIndexMatchesNaiveAdversarial(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		s := adversarialStore(seed, 300)
		l := s.Log("W")
		// Out-of-order completions must have actually occurred for this
		// test to mean anything.
		base := time.Date(2023, 1, 2, 0, 0, 0, 0, time.UTC)
		far := base.Add(100 * 24 * time.Hour)
		got := l.SubmittedBetween(base, far)
		want := naiveSubmittedBetween(l, base, far)
		if !sameRecords(got, want) {
			t.Fatalf("seed %d: full-range submit order diverges from naive", seed)
		}
		rng := rand.New(rand.NewSource(seed + 1000))
		for k := 0; k < 50; k++ {
			from := base.Add(time.Duration(rng.Intn(300)) * time.Minute)
			to := from.Add(time.Duration(rng.Intn(120)) * time.Minute)
			if !sameRecords(l.SubmittedBetween(from, to), naiveSubmittedBetween(l, from, to)) {
				t.Fatalf("seed %d window %d: submit order diverges from naive", seed, k)
			}
		}
	}
}

// OnQuery's binary insertion must keep Queries end-time sorted, and
// Stats must agree field-for-field with a naive recomputation.
func TestStatsMatchesNaiveAdversarial(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		s := adversarialStore(seed, 300)
		l := s.Log("W")
		for i := 1; i < len(l.Queries); i++ {
			if l.Queries[i].EndTime.Before(l.Queries[i-1].EndTime) {
				t.Fatalf("seed %d: Queries not end-time sorted at %d", seed, i)
			}
		}
		base := time.Date(2023, 1, 2, 0, 0, 0, 0, time.UTC)
		rng := rand.New(rand.NewSource(seed + 2000))
		for k := 0; k < 40; k++ {
			from := base.Add(time.Duration(rng.Intn(300)) * time.Minute)
			to := from.Add(time.Duration(rng.Intn(180)+1) * time.Minute)
			got := l.Stats(from, to)
			want := naiveStats(l, from, to)
			if got != want {
				t.Fatalf("seed %d window %d:\n got %+v\nwant %+v", seed, k, got, want)
			}
		}
	}
}

// Tests (and snapshot loading) build logs by appending to the exported
// slices directly; the derived indexes must resync lazily.
func TestIndexResyncAfterDirectAppend(t *testing.T) {
	l := &WarehouseLog{Name: "W"}
	base := time.Date(2023, 1, 2, 0, 0, 0, 0, time.UTC)
	at := base
	for i := 0; i < 50; i++ {
		at = at.Add(time.Minute)
		l.Queries = append(l.Queries, cdw.QueryRecord{
			Warehouse: "W", TemplateHash: uint64(i % 3),
			SubmitTime: at, StartTime: at, EndTime: at.Add(30 * time.Second),
			ExecDuration: 30 * time.Second, Clusters: 1,
		})
	}
	if got, want := l.SubmittedBetween(base, at.Add(time.Hour)), naiveSubmittedBetween(l, base, at.Add(time.Hour)); !sameRecords(got, want) {
		t.Fatal("submit index wrong after direct append")
	}
	// Append more behind the store's back; the index must pick it up.
	at = at.Add(time.Minute)
	l.Queries = append(l.Queries, cdw.QueryRecord{
		Warehouse: "W", SubmitTime: at, StartTime: at,
		EndTime: at.Add(time.Second), ExecDuration: time.Second, Clusters: 1,
	})
	if got := l.SubmittedBetween(at, at.Add(time.Minute)); len(got) != 1 {
		t.Fatalf("late direct append not indexed: %d records", len(got))
	}
	if got, want := l.Stats(base, at.Add(time.Hour)), naiveStats(l, base, at.Add(time.Hour)); got != want {
		t.Fatalf("stats after direct append:\n got %+v\nwant %+v", got, want)
	}
}

// Quickselect percentiles must return exactly what the original
// sort-based implementation returned, on random inputs including ties.
func TestQuickselectMatchesSortBased(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ps := []float64{0, 0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 1}
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(200) + 1
		ds := make([]time.Duration, n)
		for i := range ds {
			if rng.Intn(3) == 0 {
				ds[i] = time.Duration(rng.Intn(5)) // force ties
			} else {
				ds[i] = time.Duration(rng.NormFloat64() * 1e9)
			}
		}
		ref := make([]float64, n)
		for i, d := range ds {
			ref[i] = float64(d)
		}
		for _, p := range ps {
			if got, want := percentileDur(ds, p), time.Duration(naivePercentile(ref, p)); got != want {
				t.Fatalf("trial %d p=%v: percentileDur %v != sort-based %v", trial, p, got, want)
			}
		}
	}
	// All-equal inputs hit the degenerate-pivot bailout.
	same := make([]time.Duration, 5000)
	for i := range same {
		same[i] = 7
	}
	if got := percentileDur(same, 0.99); got != 7 {
		t.Fatalf("all-equal percentile = %v, want 7", got)
	}
}

// --- allocation regressions ----------------------------------------

func TestRangeQueryAllocs(t *testing.T) {
	s := adversarialStore(3, 2000)
	l := s.Log("W")
	base := time.Date(2023, 1, 2, 0, 0, 0, 0, time.UTC)
	from, to := base.Add(4*time.Hour), base.Add(9*time.Hour)
	l.Stats(from, to) // warm indexes and scratch

	if n := testing.AllocsPerRun(50, func() {
		_ = l.QueriesBetweenView(from, to)
	}); n > 0 {
		t.Fatalf("QueriesBetweenView allocates %v per call, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		_ = l.SubmittedBetween(from, to)
	}); n > 0 {
		t.Fatalf("SubmittedBetween allocates %v per call, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		_ = l.ChangesBetweenView(from, to)
	}); n > 0 {
		t.Fatalf("ChangesBetweenView allocates %v per call, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		_ = l.Stats(from, to)
	}); n > 0 {
		t.Fatalf("Stats allocates %v per call in steady state, want 0", n)
	}
}
