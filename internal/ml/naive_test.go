package ml

// The naive forward pass: the one-unit-at-a-time evaluation that
// MLP.forward's four-row blocking replaced. It is the oracle the
// blocked pass is pinned to, bit for bit.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// forwardNaive evaluates m on x one unit at a time, each unit one
// accumulator summing w*in[j] from j = 0 and then adding its bias,
// into fresh buffers so it shares nothing with m's scratch.
func forwardNaive(m *MLP, x []float64) []float64 {
	in := x
	for _, l := range m.layers {
		out := make([]float64, l.w.Rows)
		for i := range out {
			var s float64
			for j, w := range l.w.Row(i) {
				s += w * in[j]
			}
			s += l.b[i]
			out[i] = l.act.apply(s)
		}
		in = out
	}
	return in
}

// TestForwardMatchesNaive pins the blocked forward pass to the naive
// one bit for bit, with training steps in between so the weights and
// biases keep moving. The widths leave 0, 1, 2 and 3 units after the
// last block of four, and every layer runs each activation in turn.
func TestForwardMatchesNaive(t *testing.T) {
	shapes := [][]int{{13, 32, 32, 9}, {1, 1}, {3, 5, 7}, {7, 33, 2}}
	acts := map[Activation]string{ActReLU: "relu", ActTanh: "tanh", ActIdentity: "identity"}
	for _, widths := range shapes {
		for act, name := range acts {
			t.Run(fmt.Sprintf("%v/%s", widths, name), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(len(widths)*10 + int(act))))
				m := NewMLP(rng, widths...)
				m.LearningRate = 1e-2
				m.GradClip = 1
				for li := range m.layers {
					m.layers[li].act = act
					for i := range m.layers[li].b {
						m.layers[li].b[i] = rng.NormFloat64()
					}
				}
				in, out := widths[0], widths[len(widths)-1]
				x := make([]float64, in)
				target := make([]float64, out)
				mask := make([]bool, out)
				for step := 0; step < 50; step++ {
					for j := range x {
						x[j] = rng.Float64()*4 - 2
					}
					want := forwardNaive(m, x)
					got := m.Forward(x)
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("step %d output %d: blocked %v, naive %v", step, i, got[i], want[i])
						}
					}
					for i := range target {
						target[i] = rng.NormFloat64()
						mask[i] = rng.Intn(2) == 0
					}
					if step%3 == 0 {
						m.TrainStep(x, target, nil)
					} else {
						m.TrainStep(x, target, mask)
					}
				}
			})
		}
	}
}
