package cdw

import (
	"testing"
	"time"

	"kwo/internal/simclock"
)

// testRig wires a scheduler, an account, one warehouse, and a recording
// listener together.
type testRig struct {
	sched *simclock.Scheduler
	acct  *Account
	wh    *Warehouse
	recs  []QueryRecord
	evs   []WarehouseEvent
	chs   []ConfigChange
}

func (r *testRig) OnQuery(q QueryRecord)             { r.recs = append(r.recs, q) }
func (r *testRig) OnChange(c ConfigChange)           { r.chs = append(r.chs, c) }
func (r *testRig) OnWarehouseEvent(e WarehouseEvent) { r.evs = append(r.evs, e) }

func newRig(t *testing.T, cfg Config) *testRig {
	t.Helper()
	r := &testRig{sched: simclock.NewScheduler(1)}
	r.acct = NewAccount(r.sched, DefaultSimParams())
	r.acct.Subscribe(r)
	wh, err := r.acct.CreateWarehouse(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.wh = wh
	return r
}

func baseCfg() Config {
	return Config{
		Name:        "WH",
		Size:        SizeXSmall,
		MinClusters: 1,
		MaxClusters: 1,
		Policy:      ScaleStandard,
		AutoSuspend: 5 * time.Minute,
		AutoResume:  true,
	}
}

func q(work float64) Query {
	return Query{Work: work, ScaleExp: 1.0, ColdFactor: 1.0, TemplateHash: 42, BytesScanned: 1 << 20}
}

func TestAutoSuspendAfterIdle(t *testing.T) {
	r := newRig(t, baseCfg())
	if !r.wh.Running() {
		t.Fatal("new warehouse not running")
	}
	// No queries: should suspend after AutoSuspend.
	r.sched.RunFor(10 * time.Minute)
	if r.wh.Running() {
		t.Fatal("idle warehouse did not auto-suspend")
	}
	resumes, suspends, _, _ := r.wh.Stats()
	if resumes != 1 || suspends != 1 {
		t.Fatalf("resumes=%d suspends=%d, want 1/1", resumes, suspends)
	}
}

func TestAutoResumeOnQuery(t *testing.T) {
	r := newRig(t, baseCfg())
	r.sched.RunFor(10 * time.Minute) // suspend
	if err := r.acct.Submit("WH", q(10)); err != nil {
		t.Fatal(err)
	}
	if !r.wh.Running() {
		t.Fatal("query did not auto-resume warehouse")
	}
	r.sched.RunFor(time.Minute)
	if len(r.recs) != 1 {
		t.Fatalf("completed %d queries, want 1", len(r.recs))
	}
	rec := r.recs[0]
	if !rec.Resumed {
		t.Fatal("record did not mark auto-resume")
	}
	// Resume delay pushes the start, counted as queue time.
	if rec.QueueDuration < DefaultSimParams().ResumeDelay {
		t.Fatalf("queue duration %v < resume delay", rec.QueueDuration)
	}
}

func TestSubmitSuspendedNoAutoResume(t *testing.T) {
	cfg := baseCfg()
	cfg.AutoResume = false
	r := newRig(t, cfg)
	r.sched.RunFor(10 * time.Minute) // suspend
	if err := r.acct.Submit("WH", q(1)); err == nil {
		t.Fatal("suspended warehouse without auto-resume accepted a query")
	}
}

func TestColdThenWarmCache(t *testing.T) {
	r := newRig(t, baseCfg())
	// Same template twice: first cold, second warm and faster.
	r.acct.Submit("WH", q(10))
	r.sched.RunFor(time.Minute)
	r.acct.Submit("WH", q(10))
	r.sched.RunFor(time.Minute)
	if len(r.recs) != 2 {
		t.Fatalf("completed %d, want 2", len(r.recs))
	}
	if !r.recs[0].ColdRead {
		t.Fatal("first query not cold")
	}
	if r.recs[1].ColdRead {
		t.Fatal("second identical query not warm")
	}
	if r.recs[1].ExecDuration >= r.recs[0].ExecDuration {
		t.Fatalf("warm run (%v) not faster than cold (%v)",
			r.recs[1].ExecDuration, r.recs[0].ExecDuration)
	}
}

func TestSuspendDropsCache(t *testing.T) {
	r := newRig(t, baseCfg())
	r.acct.Submit("WH", q(10))
	r.sched.RunFor(20 * time.Minute) // complete + suspend
	if r.wh.Running() {
		t.Fatal("expected suspended")
	}
	r.acct.Submit("WH", q(10))
	r.sched.RunFor(time.Minute)
	if !r.recs[1].ColdRead {
		t.Fatal("cache survived a suspend")
	}
}

func TestQueueingWhenSlotsFull(t *testing.T) {
	r := newRig(t, baseCfg())
	slots := DefaultSimParams().MaxConcurrency
	for i := 0; i < slots+3; i++ {
		qq := q(60)
		qq.TemplateHash = uint64(i) // distinct working sets
		r.acct.Submit("WH", qq)
	}
	if r.wh.QueueLength() != 3 {
		t.Fatalf("queue = %d, want 3 (MaxClusters=1 cannot scale out)", r.wh.QueueLength())
	}
	r.sched.RunFor(time.Hour)
	if len(r.recs) != slots+3 {
		t.Fatalf("completed %d, want %d", len(r.recs), slots+3)
	}
	queued := 0
	for _, rec := range r.recs {
		if rec.QueueDuration > DefaultSimParams().ResumeDelay {
			queued++
		}
	}
	if queued < 3 {
		t.Fatalf("only %d queries show queueing, want >= 3", queued)
	}
}

func TestStandardScaleOut(t *testing.T) {
	cfg := baseCfg()
	cfg.MaxClusters = 3
	r := newRig(t, cfg)
	slots := DefaultSimParams().MaxConcurrency
	for i := 0; i < slots+1; i++ {
		qq := q(300)
		qq.TemplateHash = uint64(i)
		r.acct.Submit("WH", qq)
	}
	if r.wh.ActiveClusters() != 2 {
		t.Fatalf("standard policy did not scale out immediately: clusters=%d", r.wh.ActiveClusters())
	}
}

func TestEconomyScaleOutNeedsQueuedWork(t *testing.T) {
	cfg := baseCfg()
	cfg.MaxClusters = 3
	cfg.Policy = ScaleEconomy
	r := newRig(t, cfg)
	slots := DefaultSimParams().MaxConcurrency
	// One short queued query: far below the 6-minute threshold.
	for i := 0; i < slots+1; i++ {
		qq := q(30)
		qq.TemplateHash = uint64(i)
		r.acct.Submit("WH", qq)
	}
	if r.wh.ActiveClusters() != 1 {
		t.Fatalf("economy scaled out on trivial queue: clusters=%d", r.wh.ActiveClusters())
	}
	// Pile on queued work to exceed the threshold.
	for i := 0; i < 20; i++ {
		qq := q(120)
		qq.TemplateHash = uint64(100 + i)
		r.acct.Submit("WH", qq)
	}
	if r.wh.ActiveClusters() < 2 {
		t.Fatalf("economy did not scale out under heavy queue: clusters=%d", r.wh.ActiveClusters())
	}
}

func TestScaleInAfterLoadDrops(t *testing.T) {
	cfg := baseCfg()
	cfg.MaxClusters = 4
	cfg.AutoSuspend = time.Hour // keep running
	r := newRig(t, cfg)
	slots := DefaultSimParams().MaxConcurrency
	for i := 0; i < 3*slots; i++ {
		qq := q(120)
		qq.TemplateHash = uint64(i)
		r.acct.Submit("WH", qq)
	}
	if r.wh.ActiveClusters() < 2 {
		t.Fatal("did not scale out")
	}
	// After all queries finish, scale-in checks should retire extras.
	r.sched.RunFor(30 * time.Minute)
	if r.wh.ActiveClusters() != cfg.MinClusters {
		t.Fatalf("clusters = %d after idle, want MinClusters=%d",
			r.wh.ActiveClusters(), cfg.MinClusters)
	}
}

// A Maximized warehouse (Min == Max > 1) starts every cluster at once.
func TestMaximizedModeStartsAllClusters(t *testing.T) {
	cfg := baseCfg()
	cfg.MinClusters = 3
	cfg.MaxClusters = 3
	r := newRig(t, cfg)
	if r.wh.ActiveClusters() != 3 {
		t.Fatalf("maximized warehouse started %d clusters, want 3", r.wh.ActiveClusters())
	}
}

func TestResizeAffectsSubsequentLatency(t *testing.T) {
	r := newRig(t, baseCfg())
	r.acct.Submit("WH", q(64))
	r.sched.RunFor(5 * time.Minute)
	if err := r.acct.Alter("WH", Alteration{Size: SizeP(SizeLarge)}, "test"); err != nil {
		t.Fatal(err)
	}
	qq := q(64)
	qq.TemplateHash = 43
	r.acct.Submit("WH", qq)
	r.sched.RunFor(5 * time.Minute)
	if len(r.recs) != 2 {
		t.Fatalf("completed %d, want 2", len(r.recs))
	}
	// Large has 8x capacity of XS: cold 64s*2 → 128s vs 16s.
	if r.recs[1].ExecDuration >= r.recs[0].ExecDuration {
		t.Fatalf("query on Large (%v) not faster than on XS (%v)",
			r.recs[1].ExecDuration, r.recs[0].ExecDuration)
	}
	if r.recs[1].Size != SizeLarge {
		t.Fatalf("record size %v, want Large", r.recs[1].Size)
	}
}

func TestAlterReducingMaxClustersStopsExtras(t *testing.T) {
	cfg := baseCfg()
	cfg.MinClusters = 1
	cfg.MaxClusters = 4
	cfg.AutoSuspend = time.Hour
	r := newRig(t, cfg)
	slots := DefaultSimParams().MaxConcurrency
	for i := 0; i < 3*slots; i++ {
		qq := q(600)
		qq.TemplateHash = uint64(i)
		r.acct.Submit("WH", qq)
	}
	r.sched.RunFor(2 * time.Minute)
	before := r.wh.ActiveClusters()
	if before < 3 {
		t.Fatalf("precondition: wanted >=3 clusters, got %d", before)
	}
	if err := r.acct.Alter("WH", Alteration{MaxClusters: IntP(1)}, "test"); err != nil {
		t.Fatal(err)
	}
	// Busy clusters drain; after queries finish they stop.
	r.sched.RunFor(time.Hour)
	if r.wh.ActiveClusters() != 1 {
		t.Fatalf("clusters = %d after reducing max to 1", r.wh.ActiveClusters())
	}
}

func TestAlterRaisingMinClustersStartsMore(t *testing.T) {
	cfg := baseCfg()
	cfg.MaxClusters = 4
	cfg.AutoSuspend = time.Hour
	r := newRig(t, cfg)
	if err := r.acct.Alter("WH", Alteration{MinClusters: IntP(3)}, "test"); err != nil {
		t.Fatal(err)
	}
	if r.wh.ActiveClusters() != 3 {
		t.Fatalf("clusters = %d after raising min to 3", r.wh.ActiveClusters())
	}
}

func TestExplicitSuspendResume(t *testing.T) {
	r := newRig(t, baseCfg())
	if err := r.acct.Alter("WH", Alteration{Suspend: true}, "test"); err != nil {
		t.Fatal(err)
	}
	if r.wh.Running() {
		t.Fatal("explicit suspend ignored")
	}
	if err := r.acct.Alter("WH", Alteration{Resume: true}, "test"); err != nil {
		t.Fatal(err)
	}
	if !r.wh.Running() {
		t.Fatal("explicit resume ignored")
	}
}

func TestChangeLogRecordsActor(t *testing.T) {
	r := newRig(t, baseCfg())
	r.acct.Alter("WH", Alteration{Size: SizeP(SizeMedium)}, "kwo")
	r.acct.Alter("WH", Alteration{Size: SizeP(SizeLarge)}, "external-user")
	chs := r.acct.Changes()
	if len(chs) != 2 {
		t.Fatalf("changes = %d, want 2", len(chs))
	}
	if chs[0].Actor != "kwo" || chs[1].Actor != "external-user" {
		t.Fatalf("actors = %s, %s", chs[0].Actor, chs[1].Actor)
	}
	if chs[1].Before.Size != SizeMedium || chs[1].After.Size != SizeLarge {
		t.Fatal("before/after configs wrong")
	}
	if len(r.chs) != 2 {
		t.Fatal("listener did not receive change events")
	}
}

func TestBillingMinimumOnResume(t *testing.T) {
	r := newRig(t, baseCfg())
	r.sched.RunFor(10 * time.Minute) // suspend after 5min idle
	creditsBefore := r.wh.Meter().TotalCredits(r.sched.Now())
	// A 1-second query should still bill the 60s minimum.
	r.acct.Submit("WH", q(1))
	r.sched.RunFor(20 * time.Minute) // complete + suspend again
	creditsAfter := r.wh.Meter().TotalCredits(r.sched.Now())
	delta := creditsAfter - creditsBefore
	min := 60.0 / 3600
	if delta < min {
		t.Fatalf("resume billed %v credits, below 60s minimum %v", delta, min)
	}
}

func TestAutoSuspendIntervalRespected(t *testing.T) {
	cfg := baseCfg()
	cfg.AutoSuspend = 2 * time.Minute
	r := newRig(t, cfg)
	r.acct.Submit("WH", q(10))
	r.sched.RunFor(90 * time.Second)
	if !r.wh.Running() {
		t.Fatal("suspended before interval elapsed")
	}
	r.sched.RunFor(5 * time.Minute)
	if r.wh.Running() {
		t.Fatal("did not suspend after interval")
	}
	// Billed time should cover roughly query + suspend interval.
	credits := r.wh.Meter().TotalCredits(r.sched.Now())
	upper := (10.0*2 + 2 + 120 + 30) / 3600 // cold query + resume + interval + slack
	if credits > upper {
		t.Fatalf("credits %v exceed expected bound %v", credits, upper)
	}
}

func TestUtilization(t *testing.T) {
	r := newRig(t, baseCfg())
	if u := r.wh.Utilization(); u != 0 {
		t.Fatalf("idle utilization = %v", u)
	}
	for i := 0; i < 4; i++ {
		qq := q(300)
		qq.TemplateHash = uint64(i)
		r.acct.Submit("WH", qq)
	}
	want := 4.0 / float64(DefaultSimParams().MaxConcurrency)
	if u := r.wh.Utilization(); u != want {
		t.Fatalf("utilization = %v, want %v", u, want)
	}
}

func TestAccountSubmitUnknownWarehouse(t *testing.T) {
	r := newRig(t, baseCfg())
	if err := r.acct.Submit("NOPE", q(1)); err == nil {
		t.Fatal("submit to unknown warehouse succeeded")
	}
	if err := r.acct.Alter("NOPE", Alteration{}, "x"); err == nil {
		t.Fatal("alter of unknown warehouse succeeded")
	}
	if _, err := r.acct.CreateWarehouse(baseCfg()); err == nil {
		t.Fatal("duplicate create succeeded")
	}
}

func TestOverheadLedger(t *testing.T) {
	r := newRig(t, baseCfg())
	r.acct.RecordOverhead(0.01, "telemetry pull")
	r.sched.RunFor(time.Hour)
	r.acct.RecordOverhead(0.02, "alter")
	got := r.acct.OverheadBetween(t0, t0.Add(30*time.Minute))
	if !approx(got, 0.01, 1e-12) {
		t.Fatalf("overhead window = %v, want 0.01", got)
	}
	all := r.acct.OverheadBetween(t0, t0.Add(2*time.Hour))
	if !approx(all, 0.03, 1e-12) {
		t.Fatalf("overhead total = %v, want 0.03", all)
	}
}

func TestQueryIDsAssigned(t *testing.T) {
	r := newRig(t, baseCfg())
	r.acct.Submit("WH", q(1))
	r.acct.Submit("WH", q(1))
	r.sched.RunFor(time.Minute)
	if r.recs[0].QueryID == 0 || r.recs[1].QueryID == 0 ||
		r.recs[0].QueryID == r.recs[1].QueryID {
		t.Fatalf("query IDs = %d, %d", r.recs[0].QueryID, r.recs[1].QueryID)
	}
}

func TestWarehouseEventsEmitted(t *testing.T) {
	r := newRig(t, baseCfg())
	r.sched.RunFor(10 * time.Minute) // suspend
	r.acct.Submit("WH", q(1))
	r.sched.RunFor(10 * time.Minute) // resume, run, suspend
	var kinds []EventKind
	for _, e := range r.evs {
		kinds = append(kinds, e.Kind)
	}
	// create(resume,cluster-start) suspend resume cluster-start suspend
	wantContains := []EventKind{EventResume, EventSuspend, EventResume, EventSuspend}
	i := 0
	for _, k := range kinds {
		if i < len(wantContains) && k == wantContains[i] {
			i++
		}
	}
	if i != len(wantContains) {
		t.Fatalf("event kinds %v missing expected subsequence", kinds)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (float64, int) {
		r := newRig(t, func() Config { c := baseCfg(); c.MaxClusters = 3; return c }())
		rnd := r.sched.Rand("load")
		for i := 0; i < 200; i++ {
			at := t0.Add(time.Duration(rnd.Int63n(int64(2 * time.Hour))))
			qq := q(5 + rnd.Float64()*60)
			qq.TemplateHash = uint64(rnd.Intn(10))
			r.sched.Schedule(at, "submit", func() { r.acct.Submit("WH", qq) })
		}
		r.sched.RunFor(4 * time.Hour)
		return r.acct.TotalCredits(), len(r.recs)
	}
	c1, n1 := run()
	c2, n2 := run()
	if c1 != c2 || n1 != n2 {
		t.Fatalf("simulation not deterministic: (%v,%d) vs (%v,%d)", c1, n1, c2, n2)
	}
}

// TestDrainCompletionRespectsRaisedMinClusters is a regression test: a
// draining cluster that finishes after MIN_CLUSTER_COUNT was raised
// must not leave the running warehouse below its floor. stopCluster
// backfills immediately.
func TestDrainCompletionRespectsRaisedMinClusters(t *testing.T) {
	cfg := baseCfg()
	cfg.MaxClusters = 3
	cfg.AutoSuspend = time.Hour
	r := newRig(t, cfg)
	slots := DefaultSimParams().MaxConcurrency
	for i := 0; i < 3*slots; i++ {
		qq := q(600)
		qq.TemplateHash = uint64(i)
		r.acct.Submit("WH", qq)
	}
	r.sched.RunFor(2 * time.Minute)
	if r.wh.ActiveClusters() != 3 {
		t.Fatalf("precondition: wanted 3 clusters, got %d", r.wh.ActiveClusters())
	}
	// All clusters are busy, so dropping the max forces two to drain.
	if err := r.acct.Alter("WH", Alteration{MaxClusters: IntP(1)}, "test"); err != nil {
		t.Fatal(err)
	}
	if r.wh.DrainingClusters() != 2 {
		t.Fatalf("precondition: wanted 2 draining clusters, got %d", r.wh.DrainingClusters())
	}
	// Raise the floor above what will survive the drain. The alteration
	// itself starts nothing: three clusters still exist.
	if err := r.acct.Alter("WH",
		Alteration{MinClusters: IntP(2), MaxClusters: IntP(3)}, "test"); err != nil {
		t.Fatal(err)
	}
	// Queries finish, draining clusters stop; the warehouse must
	// backfill to the new floor rather than sit at one cluster.
	r.sched.RunFor(30 * time.Minute)
	if !r.wh.Running() {
		t.Fatal("warehouse suspended unexpectedly")
	}
	if got := r.wh.ActiveClusters(); got < 2 {
		t.Fatalf("clusters = %d after drain, want >= MinClusters=2", got)
	}
}
