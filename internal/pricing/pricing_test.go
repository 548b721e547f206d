package pricing

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"kwo/internal/simclock"
)

var t0 = simclock.Epoch

func mustInvoice(t *testing.T, warehouse string, from, to time.Time, actual, withoutKeebo, rate float64) Invoice {
	t.Helper()
	inv, err := NewInvoice(warehouse, from, to, actual, withoutKeebo, rate)
	if err != nil {
		t.Fatalf("NewInvoice: %v", err)
	}
	return inv
}

func TestInvoiceBasic(t *testing.T) {
	inv := mustInvoice(t, "W", t0, t0.Add(24*time.Hour), 40, 100, 0.2)
	if inv.Savings != 60 {
		t.Fatalf("savings = %v", inv.Savings)
	}
	if inv.Charge != 12 {
		t.Fatalf("charge = %v", inv.Charge)
	}
	if math.Abs(inv.SavingsPercent()-60) > 1e-9 {
		t.Fatalf("savings %% = %v", inv.SavingsPercent())
	}
	if !strings.Contains(inv.String(), "savings 60.00") {
		t.Fatalf("String() = %q", inv.String())
	}
}

func TestNoSavingsNoCharge(t *testing.T) {
	inv := mustInvoice(t, "W", t0, t0.Add(time.Hour), 100, 80, 0.2)
	if inv.Savings != 0 || inv.Charge != 0 {
		t.Fatalf("negative savings billed: %+v", inv)
	}
	if inv.SavingsPercent() != 0 {
		t.Fatal("savings percent nonzero")
	}
}

// Regression: an out-of-range rate used to be silently replaced with
// DefaultRate, so a mistyped 1.0 quietly billed 20%. It must now fail
// loudly and produce no invoice at all.
func TestBadRateRejected(t *testing.T) {
	for _, r := range []float64{-1, 0, 1, 2, math.NaN()} {
		inv, err := NewInvoice("W", t0, t0.Add(time.Hour), 0, 100, r)
		if err == nil {
			t.Fatalf("rate %v accepted: %+v", r, inv)
		}
		if inv != (Invoice{}) {
			t.Fatalf("rate %v produced a non-zero invoice: %+v", r, inv)
		}
	}
	for _, r := range []float64{-1, 1, 2, math.NaN()} {
		if l, err := NewLedger(r); err == nil {
			t.Fatalf("ledger rate %v accepted: %+v", r, l)
		}
	}
}

// A rate of exactly zero stays the documented zero-value convenience
// for ledgers: "unset" means DefaultRate.
func TestLedgerZeroRateDefaults(t *testing.T) {
	l, err := NewLedger(0)
	if err != nil {
		t.Fatalf("NewLedger(0): %v", err)
	}
	if l.Rate != DefaultRate {
		t.Fatalf("ledger rate not defaulted: %v", l.Rate)
	}
}

func TestLedgerAccumulates(t *testing.T) {
	l, err := NewLedger(0.25)
	if err != nil {
		t.Fatalf("NewLedger: %v", err)
	}
	l.Add("A", t0, t0.Add(time.Hour), 10, 30)
	l.Add("B", t0, t0.Add(time.Hour), 50, 50)
	l.Add("A", t0.Add(time.Hour), t0.Add(2*time.Hour), 5, 25)
	if got := l.TotalSavings(); got != 40 {
		t.Fatalf("total savings = %v", got)
	}
	var charges float64
	for _, inv := range l.Invoices() {
		charges += inv.Charge
	}
	if charges != 10 {
		t.Fatalf("total charges = %v", charges)
	}
	if len(l.Invoices()) != 3 {
		t.Fatal("invoice count wrong")
	}
}

// Property: charge is never negative and never exceeds rate × savings
// bound; zero-savings periods are free.
func TestPropertyChargeBounds(t *testing.T) {
	f := func(actual, without float64) bool {
		if math.IsNaN(actual) || math.IsNaN(without) ||
			math.Abs(actual) > 1e12 || math.Abs(without) > 1e12 {
			return true
		}
		inv, err := NewInvoice("W", t0, t0.Add(time.Hour), actual, without, 0.2)
		if err != nil {
			return false
		}
		if inv.Charge < 0 || inv.Savings < 0 {
			return false
		}
		return inv.Charge <= 0.2*inv.Savings+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
