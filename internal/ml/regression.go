package ml

import "fmt"

// Ridge is an L2-regularized linear regression fitted by the normal
// equations. The intercept is not regularized.
type Ridge struct {
	Lambda    float64 // regularization strength; 0 gives ordinary least squares
	Weights   []float64
	Intercept float64
	fitted    bool
}

// Fit solves min_w ||Xw + b − y||² + λ||w||² over rows of X.
func (r *Ridge) Fit(x *Matrix, y []float64) error {
	n, d := x.Rows, x.Cols
	if n != len(y) {
		return fmt.Errorf("ml: ridge: %d rows vs %d targets", n, len(y))
	}
	if n == 0 {
		return fmt.Errorf("ml: ridge: no training data")
	}
	// Augment with an intercept column and solve (XᵀX + λI) w = Xᵀy,
	// leaving the intercept unregularized.
	aug := NewMatrix(n, d+1)
	for i := 0; i < n; i++ {
		copy(aug.Row(i), x.Row(i))
		aug.Set(i, d, 1)
	}
	xt := aug.T()
	gram := xt.Mul(aug)
	for j := 0; j < d; j++ { // skip intercept at index d
		gram.Set(j, j, gram.At(j, j)+r.Lambda)
	}
	// Small jitter keeps the system PD when features are collinear.
	for j := 0; j <= d; j++ {
		gram.Set(j, j, gram.At(j, j)+1e-9)
	}
	rhs := xt.MulVec(y)
	w, err := SolveCholesky(gram, rhs)
	if err != nil {
		return fmt.Errorf("ml: ridge: %w", err)
	}
	r.Weights = w[:d]
	r.Intercept = w[d]
	r.fitted = true
	return nil
}

// Predict evaluates the fitted model on one feature vector.
func (r *Ridge) Predict(x []float64) float64 {
	if !r.fitted {
		return 0
	}
	return Dot(r.Weights, x) + r.Intercept
}

// EWMA is an exponentially weighted moving average — the first-order
// approximation the cost model falls back to when a template has too
// few observations for a regression (§5.2), and the monitor's smoother.
type EWMA struct {
	Alpha float64 // smoothing in (0, 1]; higher reacts faster
	value float64
	n     int
}

// Add folds in an observation and returns the new average.
func (e *EWMA) Add(x float64) float64 {
	a := e.Alpha
	if a <= 0 || a > 1 {
		a = 0.2
	}
	if e.n == 0 {
		e.value = x
	} else {
		e.value = a*x + (1-a)*e.value
	}
	e.n++
	return e.value
}

// AddWeighted folds in an observation at a fraction w of the usual
// smoothing weight (w in (0, 1]; w = 1 is Add). Callers use it for
// observations that should nudge the average without being allowed to
// pull it — e.g. the monitor down-weights windows it already flagged as
// degraded so a regression cannot teach the baseline to accept itself.
// A weighted observation never seeds an empty average and does not
// count toward Count.
func (e *EWMA) AddWeighted(x, w float64) float64 {
	if e.n == 0 || w <= 0 {
		return e.value
	}
	if w >= 1 {
		e.n-- // counteract Add's increment: weighted folds don't count
		return e.Add(x)
	}
	a := e.Alpha
	if a <= 0 || a > 1 {
		a = 0.2
	}
	a *= w
	e.value = a*x + (1-a)*e.value
	return e.value
}

// Value returns the current average (0 before any observation).
func (e *EWMA) Value() float64 { return e.value }

// Count returns the number of observations folded in.
func (e *EWMA) Count() int { return e.n }
