package obs

import (
	"strings"
	"testing"
	"time"
)

func failVerdict(obj string) []Verdict {
	return []Verdict{{Objective: obj, Pass: false, Value: 0.3, Target: 0.1, Burn: 3}}
}

func passVerdict(obj string) []Verdict {
	return []Verdict{{Objective: obj, Pass: true, Value: 0.05, Target: 0.1, Burn: 0.5}}
}

// TestAlertTrackerDedup pins the dedup contract: a (tenant, objective)
// pair fires exactly one breach while over budget and exactly one
// recovery on the way back, no matter how many ticks it stays in either
// state.
func TestAlertTrackerDedup(t *testing.T) {
	tr := NewAlertTracker()

	fired := tr.Observe(tick(1), 1, "t00", failVerdict("x"))
	if len(fired) != 1 || fired[0].Kind != AlertSLOBreach {
		t.Fatalf("first failure fired %v, want one slo-breach", fired)
	}
	if fired[0].Seq != 1 || fired[0].Tenant != "t00" || fired[0].Epoch != 1 || fired[0].Burn != 3 {
		t.Fatalf("breach alert = %+v", fired[0])
	}
	// Still failing: deduplicated.
	if fired := tr.Observe(tick(2), 2, "t00", failVerdict("x")); len(fired) != 0 {
		t.Fatalf("repeated failure fired %v, want nothing", fired)
	}
	// Back under budget: one recovery.
	fired = tr.Observe(tick(3), 3, "t00", passVerdict("x"))
	if len(fired) != 1 || fired[0].Kind != AlertSLORecovery || fired[0].Seq != 2 {
		t.Fatalf("recovery fired %v, want one slo-recovery seq 2", fired)
	}
	// Still passing: silence.
	if fired := tr.Observe(tick(4), 4, "t00", passVerdict("x")); len(fired) != 0 {
		t.Fatalf("repeated pass fired %v, want nothing", fired)
	}

	// Firing state is per (tenant, objective): another tenant breaching
	// the same objective fires its own alert.
	if fired := tr.Observe(tick(5), 5, "t01", failVerdict("x")); len(fired) != 1 {
		t.Fatalf("independent tenant fired %v, want one breach", fired)
	}
	keys := tr.FiringKeys()
	if len(keys) != 1 || keys[0] != "t01/x" {
		t.Fatalf("FiringKeys = %v, want [t01/x]", keys)
	}

	q := tr.Quarantine(tick(6), 6, "t02", "panic: boom")
	if q.Kind != AlertQuarantine || q.Detail != "panic: boom" || q.Seq != 4 {
		t.Fatalf("quarantine alert = %+v", q)
	}

	if tr.Seq() != 4 {
		t.Fatalf("Seq = %d, want 4", tr.Seq())
	}
	log := tr.Log()
	if len(log) != 4 {
		t.Fatalf("log has %d alerts, want 4", len(log))
	}
	for i, a := range log {
		if a.Seq != uint64(i+1) {
			t.Fatalf("log[%d].Seq = %d, want %d", i, a.Seq, i+1)
		}
	}
}

// TestAlertNoDataFlipRecovers covers the mid-run silence case: a series
// that stops producing data makes its objective pass again ("an SLO
// cannot be breached by silence"), which the tracker must surface as a
// recovery, not a stuck breach.
func TestAlertNoDataFlipRecovers(t *testing.T) {
	objs := []Objective{{Name: "abandon", Kind: RatioUnder,
		Num: []string{"bad"}, Den: []string{"all"}, Target: 0.05}}
	withData := seriesMap(map[string]*Series{
		"bad": mkSeries("bad", AggSum, 1, 1),
		"all": mkSeries("all", AggSum, 2, 2),
	})
	noData := seriesMap(map[string]*Series{})

	tr := NewAlertTracker()
	v := Evaluate(objs, withData)
	if v[0].Pass {
		t.Fatalf("verdict with data = %+v, want failing", v[0])
	}
	if fired := tr.Observe(tick(1), 1, "t00", v); len(fired) != 1 || fired[0].Kind != AlertSLOBreach {
		t.Fatalf("fired %v, want one breach", fired)
	}

	v = Evaluate(objs, noData)
	if !v[0].Pass || v[0].Burn != 0 || v[0].Detail != "no data" {
		t.Fatalf("no-data verdict = %+v, want pass/zero-burn/no data", v[0])
	}
	fired := tr.Observe(tick(2), 2, "t00", v)
	if len(fired) != 1 || fired[0].Kind != AlertSLORecovery {
		t.Fatalf("no-data flip fired %v, want one recovery", fired)
	}
	if len(tr.FiringKeys()) != 0 {
		t.Fatalf("FiringKeys = %v, want empty after recovery", tr.FiringKeys())
	}
}

// TestAlertJSONDeterministic pins the alert log's line format byte for
// byte: fixed field order, RFC3339 times, shortest round-trip floats,
// zero fields omitted.
func TestAlertJSONDeterministic(t *testing.T) {
	var b strings.Builder
	alerts := []Alert{
		{Seq: 1, Time: t0, Kind: AlertSLOBreach, Tenant: "t00", Epoch: 3,
			Objective: "p99-band", Burn: 1.5, Value: 0.3, Target: 0.2, Detail: "2/10 epochs outside 3x band"},
		{Seq: 2, Time: t0.Add(time.Hour), Kind: AlertQuarantine, Tenant: "t01", Epoch: 4,
			Detail: "panic: boom"},
	}
	for _, a := range alerts {
		b.WriteString(a.JSON() + "\n")
	}
	want := `{"seq":1,"time":"2023-01-01T00:00:00Z","kind":"slo-breach","tenant":"t00","epoch":3,"objective":"p99-band","burn":1.5,"value":0.3,"target":0.2,"detail":"2/10 epochs outside 3x band"}` + "\n" +
		`{"seq":2,"time":"2023-01-01T01:00:00Z","kind":"tenant-quarantined","tenant":"t01","epoch":4,"detail":"panic: boom"}` + "\n"
	if b.String() != want {
		t.Fatalf("JSONL output:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestAlertString(t *testing.T) {
	a := Alert{Seq: 7, Time: t0, Kind: AlertSLOBreach, Tenant: "t03", Epoch: 9,
		Objective: "savings-floor", Burn: 2.25, Detail: "zero savings"}
	s := a.String()
	for _, frag := range []string{"#7", "slo-breach", "tenant=t03", "epoch=9", "objective=savings-floor", "burn=2.25", `detail="zero savings"`} {
		if !strings.Contains(s, frag) {
			t.Fatalf("String() = %q missing %q", s, frag)
		}
	}
}
