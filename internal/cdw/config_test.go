package cdw

import (
	"testing"
	"time"
)

// TestAutoSuspendRoundingPinned pins the exact SQL an AUTO_SUSPEND
// alteration renders and requires Apply to install the same whole-second
// value: the audit log must never disagree with the configuration it
// describes. (Regression: String once truncated while Apply rounded, so
// 90.5s logged AUTO_SUSPEND=90 but configured 91s.)
func TestAutoSuspendRoundingPinned(t *testing.T) {
	cases := []struct {
		in      time.Duration
		wantSQL string
		wantCfg time.Duration
	}{
		{90 * time.Second, "ALTER WAREHOUSE SET AUTO_SUSPEND=90", 90 * time.Second},
		{90*time.Second + 500*time.Millisecond, "ALTER WAREHOUSE SET AUTO_SUSPEND=91", 91 * time.Second},
		{90*time.Second + 499*time.Millisecond, "ALTER WAREHOUSE SET AUTO_SUSPEND=90", 90 * time.Second},
		{499 * time.Millisecond, "ALTER WAREHOUSE SET AUTO_SUSPEND=0", 0},
	}
	base := Config{Name: "W", Size: SizeSmall, MinClusters: 1, MaxClusters: 1}
	for _, c := range cases {
		alt := Alteration{AutoSuspend: DurationP(c.in)}
		if got := alt.String(); got != c.wantSQL {
			t.Errorf("Alteration{AutoSuspend:%v}.String() = %q, want %q", c.in, got, c.wantSQL)
		}
		if got := alt.Apply(base).AutoSuspend; got != c.wantCfg {
			t.Errorf("Apply installed AutoSuspend=%v for input %v, want %v", got, c.in, c.wantCfg)
		}
	}
}
