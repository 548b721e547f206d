package cdw

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"kwo/internal/simclock"
)

// TestPropertySimulatorInvariants drives random workloads through a
// random warehouse configuration and checks structural invariants at
// periodic checkpoints:
//
//  1. running queries never exceed active clusters × slots,
//  2. a suspended warehouse has no active clusters and no running
//     queries,
//  3. billed credits are non-negative and non-decreasing,
//  4. active clusters never exceed MaxClusters plus draining ones,
//  5. every submitted query eventually completes.
func TestPropertySimulatorInvariants(t *testing.T) {
	f := func(seed int64, sizeIdx, maxC uint8, suspendMin uint8, n uint8) bool {
		sched := simclock.NewScheduler(seed)
		acct := NewAccount(sched, DefaultSimParams())
		cfg := Config{
			Name:        "W",
			Size:        Size(sizeIdx % 4),
			MinClusters: 1,
			MaxClusters: int(maxC%4) + 1,
			Policy:      ScalingPolicy(seed % 2),
			AutoSuspend: time.Duration(int(suspendMin%10)+1) * time.Minute,
			AutoResume:  true,
		}
		wh, err := acct.CreateWarehouse(cfg)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		queries := int(n)%120 + 10
		for i := 0; i < queries; i++ {
			at := simclock.Epoch.Add(time.Duration(rng.Int63n(int64(4 * time.Hour))))
			q := Query{
				Work:         0.5 + rng.Float64()*120,
				ScaleExp:     0.4 + rng.Float64()*0.7,
				ColdFactor:   rng.Float64() * 3,
				TemplateHash: uint64(rng.Intn(20)),
			}
			sched.Schedule(at, "q", func() { _ = acct.Submit("W", q) })
		}
		slots := acct.Params().MaxConcurrency
		lastCredits := 0.0
		ok := true
		check := func() {
			if wh.RunningQueries() > wh.ActiveClusters()*slots {
				ok = false
			}
			if !wh.Running() && (wh.ActiveClusters() != 0 || wh.RunningQueries() != 0) {
				ok = false
			}
			if wh.ActiveClusters() > cfg.MaxClusters+wh.drainingCount() {
				ok = false
			}
			c := wh.Meter().TotalCredits(sched.Now())
			if c < lastCredits-1e-9 {
				ok = false
			}
			lastCredits = c
		}
		for i := 0; i < 24*6; i++ {
			sched.RunFor(10 * time.Minute)
			check()
			if !ok {
				return false
			}
		}
		_, _, _, completed := wh.Stats()
		return completed == queries
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyAlterationsPreserveInvariants applies random alterations
// mid-flight and re-checks the same invariants.
func TestPropertyAlterationsPreserveInvariants(t *testing.T) {
	f := func(seed int64) bool {
		sched := simclock.NewScheduler(seed)
		acct := NewAccount(sched, DefaultSimParams())
		cfg := Config{
			Name: "W", Size: SizeSmall, MinClusters: 1, MaxClusters: 3,
			AutoSuspend: 5 * time.Minute, AutoResume: true,
		}
		wh, _ := acct.CreateWarehouse(cfg)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 60; i++ {
			at := simclock.Epoch.Add(time.Duration(rng.Int63n(int64(3 * time.Hour))))
			q := Query{Work: 1 + rng.Float64()*200, ScaleExp: 0.9,
				ColdFactor: 1, TemplateHash: uint64(rng.Intn(8))}
			sched.Schedule(at, "q", func() { _ = acct.Submit("W", q) })
		}
		// Random alterations every 20 minutes.
		for i := 1; i <= 9; i++ {
			at := simclock.Epoch.Add(time.Duration(i) * 20 * time.Minute)
			sched.Schedule(at, "alter", func() {
				var alt Alteration
				switch rng.Intn(5) {
				case 0:
					alt.Size = SizeP(Size(rng.Intn(5)))
				case 1:
					alt.MaxClusters = IntP(rng.Intn(4) + 1)
				case 2:
					alt.AutoSuspend = DurationP(time.Duration(rng.Intn(600)+30) * time.Second)
				case 3:
					alt.Suspend = true
				case 4:
					alt.Resume = true
				}
				// MaxClusters below MinClusters is rejected: also drop
				// min when shrinking max.
				if alt.MaxClusters != nil {
					alt.MinClusters = IntP(1)
				}
				_ = acct.Alter("W", alt, "chaos")
			})
		}
		slots := acct.Params().MaxConcurrency
		for i := 0; i < 5*6; i++ {
			sched.RunFor(10 * time.Minute)
			if wh.RunningQueries() > wh.ActiveClusters()*slots {
				return false
			}
			if !wh.Running() && wh.ActiveClusters() != 0 {
				return false
			}
		}
		// Everything completes eventually (resume if a chaos-suspend
		// stranded the queue; auto-resume handles new arrivals only).
		_ = acct.Alter("W", Alteration{Resume: true}, "chaos")
		sched.RunFor(12 * time.Hour)
		_, _, _, completed := wh.Stats()
		return completed == 60
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestClusterStartSpacing verifies Standard scale-out spaces successive
// cluster launches by ClusterStartSpacing.
func TestClusterStartSpacing(t *testing.T) {
	sched := simclock.NewScheduler(1)
	acct := NewAccount(sched, DefaultSimParams())
	cfg := Config{Name: "W", Size: SizeXSmall, MinClusters: 1, MaxClusters: 4,
		Policy: ScaleStandard, AutoSuspend: time.Hour, AutoResume: true}
	acct.CreateWarehouse(cfg)
	var starts []time.Time
	acct.Subscribe(listenerFuncs{onEvent: func(e WarehouseEvent) {
		if e.Kind == EventClusterStart {
			starts = append(starts, e.Time)
		}
	}})
	// Flood with long queries to force maximal scale-out.
	for i := 0; i < 50; i++ {
		acct.Submit("W", Query{Work: 3600, ScaleExp: 1, TemplateHash: uint64(i)})
	}
	sched.RunFor(10 * time.Minute)
	if len(starts) < 3 {
		t.Fatalf("only %d cluster starts", len(starts))
	}
	spacing := DefaultSimParams().ClusterStartSpacing
	// starts[0] is the initial cluster; scale-out starts begin at [1].
	for i := 2; i < len(starts); i++ {
		if d := starts[i].Sub(starts[i-1]); d < spacing {
			t.Fatalf("cluster starts %d and %d only %v apart, want >= %v", i-1, i, d, spacing)
		}
	}
}

// TestCacheCapacityEviction verifies the per-cluster cache evicts old
// working sets when over capacity, sized by warehouse capacity.
func TestCacheCapacityEviction(t *testing.T) {
	sched := simclock.NewScheduler(1)
	params := DefaultSimParams()
	params.CacheEntriesPerCapacity = 2 // XS holds 2 entries
	acct := NewAccount(sched, params)
	cfg := Config{Name: "W", Size: SizeXSmall, MinClusters: 1, MaxClusters: 1,
		AutoSuspend: time.Hour, AutoResume: true}
	acct.CreateWarehouse(cfg)
	var recs []QueryRecord
	acct.Subscribe(listenerFuncs{onQuery: func(r QueryRecord) { recs = append(recs, r) }})
	run := func(tmpl uint64) {
		acct.Submit("W", Query{Work: 5, ScaleExp: 1, ColdFactor: 2, TemplateHash: tmpl})
		sched.RunFor(time.Minute)
	}
	run(1) // cold; cache {1}
	run(2) // cold; cache {1,2}
	run(3) // cold; evicts 1 → cache {2,3}
	run(1) // must be cold again (evicted)
	run(3) // still warm
	wantCold := []bool{true, true, true, true, false}
	if len(recs) != len(wantCold) {
		t.Fatalf("completed %d", len(recs))
	}
	for i, w := range wantCold {
		if recs[i].ColdRead != w {
			t.Fatalf("query %d cold=%v, want %v", i, recs[i].ColdRead, w)
		}
	}
}

// TestEconomyScaleInSlower verifies Economy retires spare clusters
// later than Standard. The clock starts when the load first fits in one
// cluster, which is when the scale-in checks start counting, and
// advances 5 s at a time, so a spare cluster cannot retire unseen
// between two steps.
func TestEconomyScaleInSlower(t *testing.T) {
	const step = 5 * time.Second
	scaleInTime := func(policy ScalingPolicy) time.Duration {
		sched := simclock.NewScheduler(1)
		params := DefaultSimParams()
		acct := NewAccount(sched, params)
		cfg := Config{Name: "W", Size: SizeXSmall, MinClusters: 1, MaxClusters: 2,
			Policy: policy, AutoSuspend: 2 * time.Hour, AutoResume: true}
		wh, _ := acct.CreateWarehouse(cfg)
		// Force a second cluster.
		for i := 0; i < 20; i++ {
			acct.Submit("W", Query{Work: 600, ScaleExp: 1, TemplateHash: uint64(i)})
		}
		sched.RunFor(time.Minute)
		if wh.ActiveClusters() < 2 {
			// Economy needs enough queued work; pile more on.
			for i := 0; i < 40; i++ {
				acct.Submit("W", Query{Work: 600, ScaleExp: 1, TemplateHash: uint64(100 + i)})
			}
			sched.RunFor(time.Minute)
		}
		if wh.ActiveClusters() < 2 {
			return 0
		}
		for wh.RunningQueries()+wh.QueueLength() > params.MaxConcurrency {
			sched.RunFor(step)
		}
		start := sched.Now()
		for wh.ActiveClusters() > 1 {
			sched.RunFor(step)
			if sched.Now().Sub(start) > 2*time.Hour {
				break
			}
		}
		return sched.Now().Sub(start)
	}
	std := scaleInTime(ScaleStandard)
	eco := scaleInTime(ScaleEconomy)
	if std == 0 || eco == 0 {
		t.Fatalf("no spare cluster to retire: standard %v, economy %v", std, eco)
	}
	t.Logf("spare cluster retired after %v (standard), %v (economy)", std, eco)
	if eco <= std {
		t.Fatalf("economy scale-in (%v) not slower than standard (%v)", eco, std)
	}
}

// listenerFuncs adapts closures to the Listener interface.
type listenerFuncs struct {
	onQuery  func(QueryRecord)
	onChange func(ConfigChange)
	onEvent  func(WarehouseEvent)
}

func (l listenerFuncs) OnQuery(r QueryRecord) {
	if l.onQuery != nil {
		l.onQuery(r)
	}
}
func (l listenerFuncs) OnChange(c ConfigChange) {
	if l.onChange != nil {
		l.onChange(c)
	}
}
func (l listenerFuncs) OnWarehouseEvent(e WarehouseEvent) {
	if l.onEvent != nil {
		l.onEvent(e)
	}
}
