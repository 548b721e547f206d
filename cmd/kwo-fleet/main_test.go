package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A failing run still writes both profiles: run returns its exit status
// instead of exiting, so the deferred profile writes happen first.
func TestFailingRunKeepsProfiles(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	var stderr strings.Builder
	status := run([]string{
		"-tenants", "2", "-epochs", "8", "-seed", "3", "-format", "csv",
		"-checkpoint-dir", filepath.Join(file, "ckpt"),
		"-cpuprofile", cpu, "-memprofile", mem,
	}, io.Discard, &stderr)
	if status != 1 {
		t.Fatalf("exit status %d, want 1 (stderr %q)", status, stderr.String())
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty after a failing run", filepath.Base(p))
		}
	}
}
