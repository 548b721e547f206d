package ml

import (
	"math/rand"
	"testing"
)

func scratchTestNet() (*MLP, []float64) {
	rng := rand.New(rand.NewSource(5))
	m := NewMLP(rng, 13, 32, 32, 7)
	m.LearningRate = 5e-3
	m.GradClip = 1
	x := make([]float64, 13)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	return m, x
}

// TestMLPScratchReuseMatchesFresh checks that reusing the scratch
// across steps leaves no trace: a network trained with one set of
// buffers must match, bit for bit, a twin that is cloned (and so gets
// fresh, zeroed buffers) before every step. Alternating masks catch a
// stale output delta; every hidden delta is accumulated, so they catch
// one that is not cleared.
func TestMLPScratchReuseMatchesFresh(t *testing.T) {
	reused, x := scratchTestNet()
	fresh := reused.Clone()
	target := []float64{1, -2, 3, -4, 5, -6, 7}
	masks := [][]bool{
		{false, false, true, false, false, false, false},
		{true, false, false, false, false, false, true},
		nil,
		{false, false, false, false, true, false, false},
	}
	for step := 0; step < 40; step++ {
		x[step%len(x)] += 0.25
		mask := masks[step%len(masks)]
		lr := reused.TrainStep(x, target, mask)
		fresh = fresh.Clone()
		lf := fresh.TrainStep(x, target, mask)
		if lr != lf {
			t.Fatalf("step %d: loss %v with reused scratch, %v with fresh", step, lr, lf)
		}
	}
	for li := range reused.layers {
		for k, w := range reused.layers[li].w.Data {
			if w != fresh.layers[li].w.Data[k] {
				t.Fatalf("layer %d weight %d: %v with reused scratch, %v with fresh", li, k, w, fresh.layers[li].w.Data[k])
			}
		}
	}
}

// TestMLPCloneOwnsScratch checks that a clone evaluates into buffers of
// its own: running it must not overwrite the original's last output.
func TestMLPCloneOwnsScratch(t *testing.T) {
	m, x := scratchTestNet()
	m.Forward(x)
	c := m.Clone()
	out := m.Forward(x)
	want := append([]float64(nil), out...)
	y := make([]float64, len(x))
	c.Forward(y)
	c.TrainStep(y, want, nil)
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("clone overwrote the original's output: %v, want %v", out, want)
		}
	}
}

// TestMLPAllocsZero is the network's allocation regression: once the
// first call has built its scratch, neither Forward nor TrainStep
// allocates, masked or not.
func TestMLPAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	m, x := scratchTestNet()
	target := make([]float64, 7)
	mask := []bool{false, false, true, false, false, false, false}
	m.Forward(x)
	for name, f := range map[string]func(){
		"Forward":          func() { m.Forward(x) },
		"TrainStep":        func() { m.TrainStep(x, target, nil) },
		"TrainStep/masked": func() { m.TrainStep(x, target, mask) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, n)
		}
	}
}
