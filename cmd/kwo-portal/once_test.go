package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestRenderOnceViewGolden pins the single-tenant -once view byte for
// byte: the portal's simulation at seed 1, advanced the fixed week past
// attach exactly as main does, collected and rendered.
func TestRenderOnceViewGolden(t *testing.T) {
	sim, opt, err := newPortalSim(1)
	if err != nil {
		t.Fatalf("newPortalSim: %v", err)
	}
	sim.RunFor(onceSpan)
	v, err := collectOnceView(sim, opt)
	if err != nil {
		t.Fatalf("collectOnceView: %v", err)
	}
	got := renderOnceView(v)
	golden := filepath.Join("testdata", "onceview.golden.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run `go test ./cmd/kwo-portal -run OnceView -update` to regenerate): %v", err)
	}
	if got != string(want) {
		t.Fatalf("once view drifted from golden; run `go test ./cmd/kwo-portal -run OnceView -update` if intentional.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
