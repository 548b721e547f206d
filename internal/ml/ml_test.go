package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("shape %dx%d", m.Rows, m.Cols)
	}
	if m.At(1, 1) != 4 {
		t.Fatalf("At(1,1) = %v", m.At(1, 1))
	}
	m.Set(1, 1, 9)
	if m.At(1, 1) != 9 {
		t.Fatal("Set failed")
	}
	tr := m.T()
	if tr.Rows != 2 || tr.Cols != 3 || tr.At(1, 0) != 2 {
		t.Fatal("transpose wrong")
	}
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Fatal("clone shares storage")
	}
}

func TestMatrixMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("mul[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
	v := a.MulVec([]float64{1, 1})
	if v[0] != 3 || v[1] != 7 {
		t.Fatalf("mulvec = %v", v)
	}
}

func TestMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3)
	a.Mul(b)
}

func TestCholeskySolve(t *testing.T) {
	// SPD system with known solution.
	a := FromRows([][]float64{{4, 2, 0}, {2, 5, 1}, {0, 1, 3}})
	want := []float64{1, -2, 3}
	b := a.MulVec(want)
	x, err := SolveCholesky(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-9 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := SolveCholesky(a, []float64{1, 1}); err == nil {
		t.Fatal("indefinite matrix accepted")
	}
}

func TestRidgeRecoversCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	trueW := []float64{2.5, -1.0, 0.5}
	const b0 = 3.0
	n := 500
	x := NewMatrix(n, 3)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < 3; j++ {
			x.Set(i, j, rng.NormFloat64())
		}
		y[i] = Dot(trueW, x.Row(i)) + b0 + 0.01*rng.NormFloat64()
	}
	r := &Ridge{Lambda: 1e-6}
	if err := r.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for j := range trueW {
		if math.Abs(r.Weights[j]-trueW[j]) > 0.02 {
			t.Fatalf("weights = %v, want %v", r.Weights, trueW)
		}
	}
	if math.Abs(r.Intercept-b0) > 0.02 {
		t.Fatalf("intercept = %v, want %v", r.Intercept, b0)
	}
	if r2 := r.R2(x, y); r2 < 0.999 {
		t.Fatalf("R2 = %v", r2)
	}
}

func TestRidgeRegularizationShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 50
	x := NewMatrix(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Set(i, 0, rng.NormFloat64())
		y[i] = 5 * x.At(i, 0)
	}
	loose := &Ridge{Lambda: 0}
	tight := &Ridge{Lambda: 1000}
	loose.Fit(x, y)
	tight.Fit(x, y)
	if math.Abs(tight.Weights[0]) >= math.Abs(loose.Weights[0]) {
		t.Fatalf("lambda=1000 weight %v not shrunk vs %v", tight.Weights[0], loose.Weights[0])
	}
}

func TestRidgeErrors(t *testing.T) {
	r := &Ridge{}
	if err := r.Fit(NewMatrix(0, 2), nil); err == nil {
		t.Fatal("empty fit accepted")
	}
	if err := r.Fit(NewMatrix(3, 2), []float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if r.Predict([]float64{1, 2}) != 0 {
		t.Fatal("unfitted predict nonzero")
	}
}

func TestSGDConvergesToLine(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := &SGDRegressor{LearningRate: 0.05}
	for i := 0; i < 5000; i++ {
		x := rng.Float64()*4 - 2
		s.Update([]float64{x}, 3*x+1)
	}
	if math.Abs(s.Weights[0]-3) > 0.05 || math.Abs(s.Intercept-1) > 0.05 {
		t.Fatalf("w=%v b=%v, want 3, 1", s.Weights[0], s.Intercept)
	}
	if s.Steps() != 5000 {
		t.Fatalf("steps = %d", s.Steps())
	}
}

func TestEWMA(t *testing.T) {
	e := &EWMA{Alpha: 0.5}
	if e.Value() != 0 || e.Count() != 0 {
		t.Fatal("fresh EWMA not zero")
	}
	e.Add(10)
	if e.Value() != 10 {
		t.Fatalf("first value = %v, want 10 (seeded)", e.Value())
	}
	e.Add(0)
	if e.Value() != 5 {
		t.Fatalf("value = %v, want 5", e.Value())
	}
	// Converges toward a constant signal.
	for i := 0; i < 50; i++ {
		e.Add(7)
	}
	if math.Abs(e.Value()-7) > 1e-6 {
		t.Fatalf("value = %v, want ~7", e.Value())
	}
}

func TestScaler(t *testing.T) {
	x := FromRows([][]float64{{1, 100}, {2, 200}, {3, 300}})
	s := &Scaler{}
	s.Fit(x)
	out := s.TransformMatrix(x)
	for j := 0; j < 2; j++ {
		col := []float64{out.At(0, j), out.At(1, j), out.At(2, j)}
		if math.Abs(Mean(col)) > 1e-9 {
			t.Fatalf("col %d mean = %v", j, Mean(col))
		}
		if math.Abs(StdDev(col)-1) > 1e-9 {
			t.Fatalf("col %d std = %v", j, StdDev(col))
		}
	}
	// Constant columns do not blow up.
	c := FromRows([][]float64{{5}, {5}})
	s2 := &Scaler{}
	s2.Fit(c)
	got := s2.Transform([]float64{5})
	if got[0] != 0 {
		t.Fatalf("constant column transform = %v", got[0])
	}
}

func TestMLPLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := NewMLP(rng, 2, 8, 8, 1)
	m.LearningRate = 0.05
	data := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	targets := []float64{0, 1, 1, 0}
	for epoch := 0; epoch < 4000; epoch++ {
		i := rng.Intn(4)
		m.TrainStep(data[i], []float64{targets[i]}, nil)
	}
	for i, in := range data {
		out := m.Forward(in)[0]
		if math.Abs(out-targets[i]) > 0.25 {
			t.Fatalf("xor(%v) = %v, want %v", in, out, targets[i])
		}
	}
}

func TestMLPMaskedTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMLP(rng, 1, 8, 2)
	m.LearningRate = 0.05
	// Train only output 0 toward 5; output 1 is masked off.
	before := m.Forward([]float64{1})[1]
	for i := 0; i < 3000; i++ {
		m.TrainStep([]float64{1}, []float64{5, 999}, []bool{true, false})
	}
	out := m.Forward([]float64{1})
	if math.Abs(out[0]-5) > 0.2 {
		t.Fatalf("trained output = %v, want 5", out[0])
	}
	// Output 1 must not have chased 999 (it can drift via shared
	// hidden weights, but nowhere near the masked target).
	if math.Abs(out[1]-999) < 900 {
		t.Fatalf("masked output moved toward masked target: %v (was %v)", out[1], before)
	}
}

func TestMLPCloneAndCopyFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := NewMLP(rng, 2, 4, 1)
	b := a.Clone()
	in := []float64{0.5, -0.5}
	if a.Forward(in)[0] != b.Forward(in)[0] {
		t.Fatal("clone differs")
	}
	// Training a must not affect b.
	for i := 0; i < 100; i++ {
		a.TrainStep(in, []float64{3}, nil)
	}
	if a.Forward(in)[0] == b.Forward(in)[0] {
		t.Fatal("clone shares parameters")
	}
	b.CopyFrom(a)
	if a.Forward(in)[0] != b.Forward(in)[0] {
		t.Fatal("CopyFrom did not sync")
	}
	if w := a.Widths(); len(w) != 3 || w[0] != 2 || w[2] != 1 {
		t.Fatalf("widths = %v", w)
	}
}

func TestReplayBufferEviction(t *testing.T) {
	b := NewReplayBuffer(3)
	for i := 0; i < 5; i++ {
		b.Add(Transition{Action: i})
	}
	if b.Len() != 3 {
		t.Fatalf("len = %d, want 3", b.Len())
	}
	// Oldest two (0, 1) must be gone.
	rng := rand.New(rand.NewSource(7))
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		for _, tr := range b.Sample(nil, rng, 3) {
			seen[tr.Action] = true
		}
	}
	if seen[0] || seen[1] {
		t.Fatalf("evicted transitions still sampled: %v", seen)
	}
	if !seen[2] || !seen[3] || !seen[4] {
		t.Fatalf("recent transitions missing: %v", seen)
	}
}

func TestReplayBufferSampleSmall(t *testing.T) {
	b := NewReplayBuffer(10)
	if got := b.Sample(nil, rand.New(rand.NewSource(1)), 4); got != nil {
		t.Fatal("empty buffer sampled non-nil")
	}
	b.Add(Transition{Action: 1})
	b.Add(Transition{Action: 2})
	got := b.Sample(nil, rand.New(rand.NewSource(1)), 5)
	if len(got) != 2 {
		t.Fatalf("undersized sample = %d, want all 2", len(got))
	}
}

func TestHelpers(t *testing.T) {
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Fatal("empty helpers nonzero")
	}
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("clamp wrong")
	}
	if math.Abs(Logistic(0)-0.5) > 1e-12 {
		t.Fatal("logistic(0) != 0.5")
	}
}

// Property: Cholesky solves random SPD systems A = MᵀM + I.
func TestPropertyCholesky(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		m := NewMatrix(n, n)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		a := m.T().Mul(m)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+1)
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := a.MulVec(want)
		x, err := SolveCholesky(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(x[i]-want[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: scaler transform is invertible mentally — transformed data
// has bounded magnitude for bounded input.
func TestPropertyScalerFinite(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) < 2 {
			return true
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true // skip pathological inputs
			}
		}
		x := NewMatrix(len(vals), 1)
		for i, v := range vals {
			x.Set(i, 0, v)
		}
		s := &Scaler{}
		s.Fit(x)
		out := s.TransformMatrix(x)
		for i := 0; i < out.Rows; i++ {
			if math.IsNaN(out.At(i, 0)) || math.IsInf(out.At(i, 0), 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
