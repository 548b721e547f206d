package main

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"kwo/internal/fleet"
	"kwo/internal/obs"
	"kwo/internal/pricing"
)

// mergedMetrics renders a merged exposition for the given tenants.
func mergedMetrics(t *testing.T, tenants ...string) []byte {
	t.Helper()
	var regs []obs.LabeledRegistry
	for _, id := range tenants {
		h := obs.NewHub(time.Now)
		h.Prime("WH")
		regs = append(regs, obs.LabeledRegistry{Label: id, Registry: h.Registry})
	}
	var b bytes.Buffer
	if err := obs.WriteMergedPrometheus(&b, fleet.TenantLabel, regs); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestCheckResponse(t *testing.T) {
	metrics := mergedMetrics(t, "t00", "t01")
	cases := []struct {
		name   string
		status int
		body   string
		r      read
		ok     bool
	}{
		{"json", 200, `{"a": 1}`, read{kind: bodyJSON}, true},
		{"status", 500, `{"a": 1}`, read{kind: bodyJSON}, false},
		{"status no body", 404, ``, read{kind: bodyJSON}, false},
		{"bad json", 200, `{"a": `, read{kind: bodyJSON}, false},
		{"two json values", 200, `{"a": 1} {}`, read{kind: bodyJSON}, false},
		{"ndjson", 200, "{\"k\":1}\n{\"k\":2}\n", read{kind: bodyNDJSON}, true},
		{"empty ndjson", 200, "", read{kind: bodyNDJSON}, true},
		{"bad ndjson", 200, "{\"k\":1}\n{\"k\"\n", read{kind: bodyNDJSON}, false},
		{"ndjson not an object", 200, "{\"k\":1}\n[1]\n", read{kind: bodyNDJSON}, false},
		{"ndjson blank line", 200, "{\"k\":1}\n\n{\"k\":2}\n", read{kind: bodyNDJSON}, false},
		{"metrics", 200, string(metrics), read{kind: bodyMetrics, tenants: []string{"t00", "t01"}, digest: true}, true},
		{"metrics missing tenant", 200, string(metrics), read{kind: bodyMetrics, tenants: []string{"t00", "t02"}, digest: true}, false},
		{"metrics garbage", 200, string(metrics) + "not a sample line\n", read{kind: bodyMetrics, digest: true}, false},
		{"metrics empty", 200, "", read{kind: bodyMetrics, digest: true}, false},
		{"metrics status undigested", 503, string(metrics), read{kind: bodyMetrics}, false},
		{"metrics undigested, not parsed", 200, "not a sample line\n", read{kind: bodyMetrics}, true},
	}
	for _, c := range cases {
		err := checkResponse(c.status, []byte(c.body), c.r)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok %v", c.name, err, c.ok)
		}
	}
}

// TestCheckResponseAllocs keeps the checks that run on every read from
// adding garbage between the measured intervals.
func TestCheckResponseAllocs(t *testing.T) {
	bodies := []struct {
		body string
		kind bodyKind
	}{
		{`{"series": [[1, 2.5], [2, 3]], "tenant": "t00"}`, bodyJSON},
		{"{\"k\":1}\n{\"k\":2}\n", bodyNDJSON},
		{string(mergedMetrics(t, "t00")), bodyMetrics},
	}
	for _, b := range bodies {
		body := []byte(b.body)
		if n := testing.AllocsPerRun(20, func() {
			if err := checkResponse(200, body, read{kind: b.kind}); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("kind %d: %v allocations per check", b.kind, n)
		}
	}
}

func TestCheckSavings(t *testing.T) {
	if err := checkSavings(10, 12); err != nil {
		t.Error(err)
	}
	for _, c := range [][2]float64{{12, 10}, {10, 10}} {
		if checkSavings(c[0], c[1]) == nil {
			t.Errorf("savings actual %v without %v passed", c[0], c[1])
		}
	}
}

func TestCheckInvoices(t *testing.T) {
	at := time.Date(2023, 1, 9, 0, 0, 0, 0, time.UTC)
	day := 24 * time.Hour
	inv := func(from, to time.Time) pricing.Invoice {
		i, err := pricing.NewInvoice("WH", from, to, 10, 12, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		return i
	}
	good := []pricing.Invoice{inv(at, at.Add(day)), inv(at.Add(day), at.Add(2*day))}
	if err := checkInvoices(good, at, at.Add(2*day), at.Add(2*day+time.Hour)); err != nil {
		t.Fatal(err)
	}
	gap := []pricing.Invoice{inv(at, at.Add(day)), inv(at.Add(day+time.Hour), at.Add(2*day))}
	overlap := []pricing.Invoice{inv(at, at.Add(day)), inv(at.Add(day-time.Hour), at.Add(2*day))}
	late := []pricing.Invoice{inv(at.Add(time.Hour), at.Add(day))}
	tampered := []pricing.Invoice{inv(at, at.Add(day))}
	tampered[0].Charge = 99
	bad := map[string]struct {
		invs        []pricing.Invoice
		period, now time.Time
	}{
		"none":         {nil, at, at.Add(day)},
		"gap":          {gap, at.Add(2 * day), at.Add(2 * day)},
		"overlap":      {overlap, at.Add(2 * day), at.Add(2 * day)},
		"late start":   {late, at.Add(day), at.Add(day)},
		"short":        {good, at.Add(3 * day), at.Add(3 * day)},
		"future":       {good, at.Add(2 * day), at.Add(day)},
		"charge wrong": {tampered, at.Add(day), at.Add(day)},
	}
	for name, c := range bad {
		if checkInvoices(c.invs, at, c.period, c.now) == nil {
			t.Errorf("%s: passed", name)
		}
	}
}

func TestCheckTicks(t *testing.T) {
	if err := checkTicks(144, 144); err != nil {
		t.Error(err)
	}
	if checkTicks(143, 144) == nil || checkTicks(145, 144) == nil {
		t.Error("wrong tick count passed")
	}
}

func TestCheckQuarantine(t *testing.T) {
	ok := fleet.LiveKPIs{PerTenant: []fleet.TenantLive{{Tenant: "t00"}}}
	if err := checkQuarantine(ok); err != nil {
		t.Error(err)
	}
	if checkQuarantine(fleet.LiveKPIs{Quarantined: 1}) == nil {
		t.Error("quarantine count passed")
	}
	row := fleet.LiveKPIs{PerTenant: []fleet.TenantLive{{Tenant: "t00", Quarantined: true}}}
	if checkQuarantine(row) == nil {
		t.Error("quarantined tenant passed")
	}
}

func TestCheckCheckpoint(t *testing.T) {
	dir := t.TempDir()
	f, err := fleet.New(fleet.Config{Tenants: 2, Seed: 1, Workers: 1, Epochs: 3, AttachEpoch: 2,
		CheckpointDir: dir, CheckpointEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteCheckpoint(); err != nil {
		t.Fatal(err)
	}
	paths, _ := filepath.Glob(filepath.Join(dir, "*"))
	if len(paths) != 1 {
		t.Fatalf("checkpoint files: %v", paths)
	}
	data, err := checkCheckpoint(paths[0], 1)
	if err != nil || len(data) == 0 {
		t.Fatalf("valid checkpoint: %v", err)
	}
	if _, err := checkCheckpoint(paths[0], 2); err == nil {
		t.Error("wrong epoch passed")
	}
	if err := os.WriteFile(paths[0], data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := checkCheckpoint(paths[0], 1); err == nil {
		t.Error("truncated checkpoint passed")
	}
	bumped := strings.Replace(string(data), `"version": 1`, `"version": 9`, 1)
	if err := os.WriteFile(paths[0], []byte(bumped), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := checkCheckpoint(paths[0], 1); err == nil {
		t.Error("checkpoint of another version passed")
	}
}

func TestCheckDigests(t *testing.T) {
	if err := checkDigests([]string{"a", "a", "a"}); err != nil {
		t.Error(err)
	}
	if checkDigests([]string{"a", "a", "b"}) == nil {
		t.Error("differing laps passed")
	}
}

func TestResponseWriter(t *testing.T) {
	r := newResponse()
	http.Error(r, "nope", http.StatusBadRequest)
	if r.status != http.StatusBadRequest || !strings.Contains(r.body.String(), "nope") {
		t.Errorf("status %d body %q", r.status, r.body.String())
	}
	r.reset()
	r.Write([]byte("ok"))
	if r.status != http.StatusOK || r.body.String() != "ok" || len(r.header) != 0 {
		t.Errorf("after reset: status %d body %q header %v", r.status, r.body.String(), r.header)
	}
}
