package policy

import (
	"testing"
	"testing/quick"
	"time"

	"kwo/internal/action"
	"kwo/internal/cdw"
	"kwo/internal/monitor"
	"kwo/internal/simclock"
)

var t0 = simclock.Epoch // Monday 00:00 UTC

func cfg() cdw.Config {
	return cdw.Config{
		Name: "BI_WH", Size: cdw.SizeLarge, MinClusters: 1, MaxClusters: 4,
		AutoSuspend: 5 * time.Minute, AutoResume: true,
	}
}

func at(day time.Weekday, hour, min int) time.Time {
	// Epoch is Monday; offset to the requested weekday.
	offset := (int(day) - int(time.Monday) + 7) % 7
	return t0.Add(time.Duration(offset)*24*time.Hour +
		time.Duration(hour)*time.Hour + time.Duration(min)*time.Minute)
}

func TestRuleActiveAt(t *testing.T) {
	r := Rule{Days: []time.Weekday{time.Monday}, StartMinute: 9 * 60, EndMinute: 10 * 60}
	if !r.ActiveAt(at(time.Monday, 9, 30)) {
		t.Fatal("inactive inside window")
	}
	if r.ActiveAt(at(time.Monday, 10, 0)) {
		t.Fatal("active at exclusive end")
	}
	if r.ActiveAt(at(time.Tuesday, 9, 30)) {
		t.Fatal("active on wrong day")
	}
	allDay := Rule{Days: []time.Weekday{time.Friday}}
	if !allDay.ActiveAt(at(time.Friday, 23, 59)) || allDay.ActiveAt(at(time.Thursday, 12, 0)) {
		t.Fatal("all-day rule wrong")
	}
	wrap := Rule{StartMinute: 22 * 60, EndMinute: 6 * 60}
	if !wrap.ActiveAt(at(time.Monday, 23, 0)) || !wrap.ActiveAt(at(time.Monday, 5, 0)) ||
		wrap.ActiveAt(at(time.Monday, 12, 0)) {
		t.Fatal("wrapping window wrong")
	}
}

func TestNoDownsizeRule(t *testing.T) {
	cs := Constraints{{
		Name: "protect mornings", Days: []time.Weekday{time.Monday},
		StartMinute: 9 * 60, EndMinute: 10 * 60, NoDownsize: true,
	}}
	down := action.Action{Kind: action.SizeDown}
	if cs.Allows(at(time.Monday, 9, 15), cfg(), down) {
		t.Fatal("downsize allowed during protected window")
	}
	if !cs.Allows(at(time.Monday, 11, 0), cfg(), down) {
		t.Fatal("downsize blocked outside window")
	}
	if !cs.Allows(at(time.Monday, 9, 15), cfg(), action.Action{Kind: action.SizeUp}) {
		t.Fatal("upsize blocked by NoDownsize rule")
	}
}

func TestMinSizeEnforcement(t *testing.T) {
	min := cdw.SizeMedium
	cs := Constraints{{Name: "floor", MinSize: &min}}
	c := cfg()
	c.Size = cdw.SizeMedium
	if cs.Allows(t0, c, action.Action{Kind: action.SizeDown}) {
		t.Fatal("downsize below MinSize allowed")
	}
	c.Size = cdw.SizeLarge
	if !cs.Allows(t0, c, action.Action{Kind: action.SizeDown}) {
		t.Fatal("downsize to MinSize blocked")
	}
}

func TestMinClustersEnforcement(t *testing.T) {
	three := 3
	cs := Constraints{{Name: "clusters", MinClusters: &three}}
	c := cfg()
	c.MaxClusters = 3
	if cs.Allows(t0, c, action.Action{Kind: action.ClustersDown}) {
		t.Fatal("cluster reduction below floor allowed")
	}
	c.MaxClusters = 4
	if !cs.Allows(t0, c, action.Action{Kind: action.ClustersDown}) {
		t.Fatal("cluster reduction to floor blocked")
	}
}

func TestRequiredEnforcesWindow(t *testing.T) {
	// The paper's example: 9:00–9:30 the BI warehouse must be X-Large
	// with a minimum of 3 clusters.
	xl := cdw.SizeXLarge
	three := 3
	cs := Constraints{{
		Name: "morning rush", StartMinute: 9 * 60, EndMinute: 9*60 + 30,
		EnforceSize: &xl, MinClusters: &three,
	}}
	c := cfg() // Large, 1-4 clusters
	alt := cs.Required(at(time.Monday, 9, 5), c)
	if alt.Size == nil || *alt.Size != cdw.SizeXLarge {
		t.Fatalf("required size = %+v", alt.Size)
	}
	if alt.MinClusters == nil || *alt.MinClusters != 3 {
		t.Fatalf("required min clusters = %+v", alt.MinClusters)
	}
	// Outside the window: nothing required.
	if got := cs.Required(at(time.Monday, 10, 0), c); !got.IsZero() {
		t.Fatalf("required outside window = %+v", got)
	}
	// Already compliant: nothing required.
	c.Size = cdw.SizeXLarge
	c.MinClusters, c.MaxClusters = 3, 4
	if got := cs.Required(at(time.Monday, 9, 5), c); !got.IsZero() {
		t.Fatalf("required when compliant = %+v", got)
	}
}

func TestRuleValidate(t *testing.T) {
	bad := []Rule{
		{Name: "m", StartMinute: -1},
		{Name: "m", EndMinute: 24*60 + 1},
		{Name: "s", MinSize: func() *cdw.Size { s := cdw.Size(99); return &s }()},
		{Name: "o", MinSize: cdw.SizeP(cdw.SizeLarge), MaxSize: cdw.SizeP(cdw.SizeSmall)},
		{Name: "c", MinClusters: cdw.IntP(0)},
	}
	for i, r := range bad {
		if r.Validate() == nil {
			t.Errorf("bad rule %d accepted", i)
		}
	}
	good := Rule{Name: "ok", StartMinute: 60, EndMinute: 120, MinClusters: cdw.IntP(2)}
	if err := (Constraints{good}).Validate(); err != nil {
		t.Fatalf("good rule rejected: %v", err)
	}
}

func TestSliderTuningMonotone(t *testing.T) {
	sliders := []Slider{BestPerformance, GoodPerformance, Balanced, LowCost, LowestCost}
	for i := 1; i < len(sliders); i++ {
		a, b := sliders[i-1].Tuning(), sliders[i].Tuning()
		if b.PerfPenalty >= a.PerfPenalty {
			t.Errorf("%v→%v: PerfPenalty not decreasing", sliders[i-1], sliders[i])
		}
		if b.MaxLatencyFactor <= a.MaxLatencyFactor {
			t.Errorf("%v→%v: MaxLatencyFactor not increasing", sliders[i-1], sliders[i])
		}
		if b.MaxAddedLatency <= a.MaxAddedLatency {
			t.Errorf("%v→%v: MaxAddedLatency not increasing", sliders[i-1], sliders[i])
		}
		if b.MaxQueueRisk < a.MaxQueueRisk {
			t.Errorf("%v→%v: MaxQueueRisk decreasing", sliders[i-1], sliders[i])
		}
		if b.MinSavingsToAct >= a.MinSavingsToAct {
			t.Errorf("%v→%v: MinSavingsToAct not decreasing", sliders[i-1], sliders[i])
		}
		if b.Headroom >= a.Headroom {
			t.Errorf("%v→%v: Headroom not decreasing", sliders[i-1], sliders[i])
		}
		if b.CooldownTicks >= a.CooldownTicks {
			t.Errorf("%v→%v: CooldownTicks not decreasing", sliders[i-1], sliders[i])
		}
	}
	if !Balanced.Valid() || Slider(0).Valid() || Slider(6).Valid() {
		t.Fatal("Valid() wrong")
	}
	for _, s := range sliders {
		if s.String() == "" {
			t.Fatal("empty slider label")
		}
	}
}

func TestBackoffRevertsRecentAction(t *testing.T) {
	b := NewBackoff(2, 4)
	healthy := monitor.Snapshot{}
	degraded := monitor.Snapshot{Degraded: true}

	b.Tick(healthy)
	b.Record(action.Action{Kind: action.SizeDown, Warehouse: "W"})
	d := b.Tick(degraded)
	if d.Revert == nil {
		t.Fatal("no revert after degradation inside guard window")
	}
	if d.Revert.Kind != action.SizeUp || !d.Revert.Reverts {
		t.Fatalf("revert = %+v, want size-up revert", d.Revert)
	}
	if !d.Conservative {
		t.Fatal("not conservative after revert")
	}
	if b.Reverts() != 1 {
		t.Fatalf("reverts = %d", b.Reverts())
	}
	// Cooldown holds for the configured ticks.
	for i := 0; i < 4; i++ {
		if d := b.Tick(healthy); !d.Conservative {
			t.Fatalf("cooldown released early at tick %d", i)
		}
	}
	if d := b.Tick(healthy); d.Conservative {
		t.Fatal("cooldown never released")
	}
}

func TestBackoffGuardExpires(t *testing.T) {
	b := NewBackoff(2, 4)
	healthy := monitor.Snapshot{}
	b.Tick(healthy)
	b.Record(action.Action{Kind: action.SizeDown, Warehouse: "W"})
	b.Tick(healthy)
	b.Tick(healthy)
	// Guard window (2 ticks) has passed; degradation now is not ours.
	d := b.Tick(monitor.Snapshot{Degraded: true})
	if d.Revert != nil {
		t.Fatalf("stale action reverted: %+v", d.Revert)
	}
	if !d.Conservative {
		t.Fatal("workload spike did not force conservative mode")
	}
}

func TestBackoffIgnoresNoOp(t *testing.T) {
	b := NewBackoff(2, 4)
	b.Tick(monitor.Snapshot{})
	b.Record(action.Action{Kind: action.NoOp})
	d := b.Tick(monitor.Snapshot{Degraded: true})
	if d.Revert != nil {
		t.Fatal("reverted a no-op")
	}
}

func TestBackoffDoubleRevertSuppressed(t *testing.T) {
	b := NewBackoff(3, 4)
	b.Tick(monitor.Snapshot{})
	b.Record(action.Action{Kind: action.ClustersDown, Warehouse: "W"})
	if d := b.Tick(monitor.Snapshot{Degraded: true}); d.Revert == nil {
		t.Fatal("first revert missing")
	}
	// Still degraded next tick: the same action must not revert twice.
	if d := b.Tick(monitor.Snapshot{Degraded: true}); d.Revert != nil {
		t.Fatal("same action reverted twice")
	}
}

// Property: NoOp is allowed under every combination of prohibitions,
// so the smart model's walk down its ranked actions, which skips what
// the constraints forbid and falls back to NoOp, never ends on a
// forbidden action.
func TestPropertyFilterSound(t *testing.T) {
	f := func(noDown, noUp, noSusp, noClus bool) bool {
		cs := Constraints{{Name: "p", NoDownsize: noDown, NoUpsize: noUp,
			NoSuspendChange: noSusp, NoClusterChange: noClus}}
		return cs.Allows(t0, cfg(), action.Action{Kind: action.NoOp})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Required output, applied, is compliant (idempotent fixpoint).
func TestPropertyRequiredIdempotent(t *testing.T) {
	f := func(sizeIdx uint8, minC uint8, enforce uint8) bool {
		es := cdw.Size(enforce % 10)
		mc := int(minC%4) + 1
		cs := Constraints{{Name: "e", EnforceSize: &es, MinClusters: &mc}}
		c := cfg()
		c.Size = cdw.Size(sizeIdx % 10)
		alt := cs.Required(t0, c)
		after := alt.Apply(c)
		return cs.Required(t0, after).IsZero()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
