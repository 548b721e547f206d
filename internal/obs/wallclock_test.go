package obs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoWallClockInInstrumentedPackages forbids time.Now() in the obs
// package and every package it instruments. Determinism under
// simulation depends on every timestamp flowing from the injected
// virtual clock; a single wall-clock read would make metrics, events,
// and golden traces diverge between runs. CI greps for the same
// pattern, this test keeps the rule enforced under plain `go test`.
func TestNoWallClockInInstrumentedPackages(t *testing.T) {
	pkgs := []string{
		".",            // internal/obs
		"../core",      // engine instrumentation
		"../actuator",  // retry/breaker instrumentation
		"../monitor",   // snapshot observer
		"../costmodel", // training and replays run on the simulation clock
		"../cdw",       // fault/audit instrumentation
		"../telemetry", // query/billing instrumentation
		"../simclock",  // the clock itself must be purely seeded
		"../pricing",   // invoices carry sim timestamps
		"../simtest",   // the harness that asserts determinism
		"../fleet",     // epoch sampling and the observability plane
	}
	for _, dir := range pkgs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("read %s: %v", dir, err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(dir, name)
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(src), "\n") {
				code, _, _ := strings.Cut(line, "//")
				if strings.Contains(code, "time.Now(") {
					t.Errorf("%s:%d: wall-clock read in an instrumented package: %s",
						path, i+1, strings.TrimSpace(line))
				}
			}
		}
	}
}
