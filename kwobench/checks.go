package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"time"

	"kwo/internal/fleet"
	"kwo/internal/obs"
	"kwo/internal/pricing"
)

// checker collects output-check failures. Checks compare only values
// produced within the run, never committed golden values.
type checker struct {
	failures []string
}

func (c *checker) fail(format string, args ...any) {
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
}

func (c *checker) ok() bool { return len(c.failures) == 0 }

// bodyKind is the format a response body must decode as.
type bodyKind int

const (
	bodyJSON    bodyKind = iota // one JSON value
	bodyNDJSON                  // one JSON object per line
	bodyMetrics                 // Prometheus text exposition
)

// checkResponse checks one read: status 200 and a body that decodes
// as r.kind. JSON bodies and each line of an NDJSON body go through
// json.Valid, the decoder's syntax check, which allocates nothing. A
// /metrics body is parsed with obs.ParseText, and checked for every
// tenant label in r.tenants, only when r.digest is set: the checks run
// between measured intervals, and parsing every 932 KB fleet scrape
// left enough garbage to slow ops-read's measured epochs by about 8%.
func checkResponse(status int, body []byte, r read) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d", status)
	}
	switch r.kind {
	case bodyJSON:
		if !json.Valid(body) {
			return errors.New("json: body does not decode")
		}
	case bodyNDJSON:
		for n := 1; len(body) > 0; n++ {
			line := body
			if k := bytes.IndexByte(body, '\n'); k >= 0 {
				line, body = body[:k], body[k+1:]
			} else {
				body = nil
			}
			if len(line) == 0 || line[0] != '{' || !json.Valid(line) {
				return fmt.Errorf("ndjson: line %d is not a JSON object", n)
			}
		}
	case bodyMetrics:
		if !r.digest {
			return nil
		}
		m, err := obs.ParseText(bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		if !m.Has(obs.MetricDecisionTicks) {
			return fmt.Errorf("metrics: no %s family", obs.MetricDecisionTicks)
		}
		for _, t := range r.tenants {
			if !m.HasSeriesWithLabel(obs.MetricQueries, fleet.TenantLabel, t) {
				return fmt.Errorf("metrics: no %s series for tenant %s", obs.MetricQueries, t)
			}
		}
	}
	return nil
}

// checkSavings requires the optimized window to have saved credits.
func checkSavings(actual, without float64) error {
	if !(without-actual > 0) || math.IsInf(without, 0) {
		return fmt.Errorf("savings: actual %.4f credits, without optimizer %.4f", actual, without)
	}
	return nil
}

// checkInvoices requires invoices to tile [attach, period) with no gap
// or overlap, where period is the start of the still-open billing
// period and lies at or before now.
func checkInvoices(invoices []pricing.Invoice, attach, period, now time.Time) error {
	if len(invoices) == 0 {
		return fmt.Errorf("invoices: none cut between %v and %v", attach, now)
	}
	at := attach
	for i, inv := range invoices {
		if !inv.From.Equal(at) || !inv.To.After(inv.From) {
			return fmt.Errorf("invoices: #%d covers [%v, %v), want start %v", i, inv.From, inv.To, at)
		}
		if err := inv.Validate(); err != nil {
			return fmt.Errorf("invoices: #%d: %w", i, err)
		}
		at = inv.To
	}
	if !at.Equal(period) || period.After(now) {
		return fmt.Errorf("invoices: end at %v, open period starts %v, now %v", at, period, now)
	}
	return nil
}

// checkTicks requires exactly want decision ticks.
func checkTicks(ticks float64, want int) error {
	if ticks != float64(want) {
		return fmt.Errorf("decision ticks: %v, want %d", ticks, want)
	}
	return nil
}

// checkQuarantine requires every tenant to be live.
func checkQuarantine(k fleet.LiveKPIs) error {
	if k.Quarantined != 0 {
		return fmt.Errorf("quarantine: %d tenants quarantined", k.Quarantined)
	}
	for _, t := range k.PerTenant {
		if t.Quarantined {
			return fmt.Errorf("quarantine: tenant %s: %s", t.Tenant, t.QuarantineReason)
		}
	}
	return nil
}

// checkCheckpoint requires the checkpoint at path to load and to be
// the one for epoch; it returns the file's bytes.
func checkCheckpoint(path string, epoch int) ([]byte, error) {
	cp, err := fleet.LoadCheckpoint(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if cp.Epoch != epoch {
		return nil, fmt.Errorf("checkpoint: epoch %d, want %d", cp.Epoch, epoch)
	}
	return os.ReadFile(path)
}

// checkDigests requires every lap to have produced the same outputs:
// laps replay one seed, so any difference is nondeterminism.
func checkDigests(ds []string) error {
	for i, d := range ds {
		if d != ds[0] {
			return fmt.Errorf("digest: lap %d produced %s, lap 0 %s", i, d, ds[0])
		}
	}
	return nil
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func digestJSON(c *checker, v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		c.fail("digest: %v", err)
	}
	return digestBytes(b)
}
