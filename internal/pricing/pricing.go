// Package pricing implements KWO's value-based pricing (§4.7): the
// customer is charged a percentage of the savings actually realized —
// "no savings, no charges" — with savings estimated by the warehouse
// cost model's what-if analysis.
package pricing

import (
	"fmt"
	"math"
	"time"
)

// DefaultRate is the fraction of realized savings billed to the
// customer.
const DefaultRate = 0.20

// Invoice is one billing-period statement.
type Invoice struct {
	Warehouse string
	From, To  time.Time
	// ActualCredits is what the customer paid the CDW vendor.
	ActualCredits float64
	// EstimatedWithoutKeebo is the cost model's counterfactual.
	EstimatedWithoutKeebo float64
	// Savings is max(0, EstimatedWithoutKeebo − ActualCredits).
	Savings float64
	// Rate is the fraction of savings charged.
	Rate float64
	// Charge is Savings × Rate.
	Charge float64
}

// NewInvoice computes an invoice from the period's actual and
// counterfactual costs. Negative savings never produce a charge (and
// are reported as zero savings): the customer has nothing to lose (C1).
// The rate must lie strictly inside (0, 1); an out-of-range rate is an
// error, never silently replaced — a mistyped 1.0 must fail loudly, not
// quietly bill the default share.
func NewInvoice(warehouse string, from, to time.Time, actual, withoutKeebo, rate float64) (Invoice, error) {
	if err := ValidateRate(rate); err != nil {
		return Invoice{}, fmt.Errorf("pricing: invoice %s: %w", warehouse, err)
	}
	return newInvoice(warehouse, from, to, actual, withoutKeebo, rate), nil
}

// newInvoice builds the invoice from a rate the caller has already
// validated (Ledger construction validates once, Add reuses).
func newInvoice(warehouse string, from, to time.Time, actual, withoutKeebo, rate float64) Invoice {
	savings := withoutKeebo - actual
	if savings < 0 {
		savings = 0
	}
	return Invoice{
		Warehouse:             warehouse,
		From:                  from,
		To:                    to,
		ActualCredits:         actual,
		EstimatedWithoutKeebo: withoutKeebo,
		Savings:               savings,
		Rate:                  rate,
		Charge:                savings * rate,
	}
}

// ValidateRate reports whether a savings-share rate is usable: a finite
// fraction strictly inside (0, 1).
func ValidateRate(rate float64) error {
	if math.IsNaN(rate) || rate <= 0 || rate >= 1 {
		return fmt.Errorf("pricing: rate %v outside (0,1)", rate)
	}
	return nil
}

// Validate checks the invoice's internal consistency: every field
// finite and non-negative, the period well-formed, savings exactly the
// clamped counterfactual difference, and the charge exactly the rated
// share of savings. "No savings, no charges" (§4.7) is only credible
// if no code path can manufacture a charge any other way.
func (i Invoice) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"ActualCredits", i.ActualCredits},
		{"EstimatedWithoutKeebo", i.EstimatedWithoutKeebo},
		{"Savings", i.Savings},
		{"Rate", i.Rate},
		{"Charge", i.Charge},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("pricing: invoice %s: %s is %v", i.Warehouse, f.name, f.v)
		}
		if f.v < 0 {
			return fmt.Errorf("pricing: invoice %s: %s is negative (%v)", i.Warehouse, f.name, f.v)
		}
	}
	if i.To.Before(i.From) {
		return fmt.Errorf("pricing: invoice %s: period ends (%v) before it starts (%v)",
			i.Warehouse, i.To, i.From)
	}
	if i.Rate <= 0 || i.Rate >= 1 {
		return fmt.Errorf("pricing: invoice %s: rate %v outside (0,1)", i.Warehouse, i.Rate)
	}
	wantSavings := i.EstimatedWithoutKeebo - i.ActualCredits
	if wantSavings < 0 {
		wantSavings = 0
	}
	if i.Savings != wantSavings {
		return fmt.Errorf("pricing: invoice %s: savings %v != clamp(withoutKeebo-actual) %v",
			i.Warehouse, i.Savings, wantSavings)
	}
	if i.Charge != i.Savings*i.Rate {
		return fmt.Errorf("pricing: invoice %s: charge %v != savings*rate %v",
			i.Warehouse, i.Charge, i.Savings*i.Rate)
	}
	return nil
}

// SavingsPercent returns savings as a percentage of the counterfactual
// cost (the number the paper's "20%–70% savings" claim refers to).
func (i Invoice) SavingsPercent() float64 {
	if i.EstimatedWithoutKeebo <= 0 {
		return 0
	}
	return 100 * i.Savings / i.EstimatedWithoutKeebo
}

// String renders a one-line statement.
func (i Invoice) String() string {
	return fmt.Sprintf("%s %s→%s: actual %.2f, without-Keebo %.2f, savings %.2f (%.1f%%), charge %.2f",
		i.Warehouse, i.From.Format("2006-01-02"), i.To.Format("2006-01-02"),
		i.ActualCredits, i.EstimatedWithoutKeebo, i.Savings, i.SavingsPercent(), i.Charge)
}

// Ledger accumulates invoices per warehouse.
type Ledger struct {
	Rate     float64
	invoices []Invoice
}

// NewLedger creates a ledger with the given savings share. A rate of
// exactly zero is the documented zero-value convenience and selects
// DefaultRate; any other out-of-range rate (negative, >= 1, NaN) is an
// error rather than a silent substitution.
func NewLedger(rate float64) (*Ledger, error) {
	if rate == 0 {
		rate = DefaultRate
	}
	if err := ValidateRate(rate); err != nil {
		return nil, fmt.Errorf("pricing: ledger: %w", err)
	}
	return &Ledger{Rate: rate}, nil
}

// Add computes and stores an invoice, returning it. The ledger's rate
// was validated at construction, so Add cannot fail.
func (l *Ledger) Add(warehouse string, from, to time.Time, actual, withoutKeebo float64) Invoice {
	inv := newInvoice(warehouse, from, to, actual, withoutKeebo, l.Rate)
	l.invoices = append(l.invoices, inv)
	return inv
}

// Invoices returns a copy of all invoices.
func (l *Ledger) Invoices() []Invoice {
	out := make([]Invoice, len(l.invoices))
	copy(out, l.invoices)
	return out
}

// TotalSavings sums savings across invoices.
func (l *Ledger) TotalSavings() float64 {
	var s float64
	for _, inv := range l.invoices {
		s += inv.Savings
	}
	return s
}
