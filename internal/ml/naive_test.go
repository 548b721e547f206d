package ml

// The naive forward pass and training step: the one-unit-at-a-time
// evaluation that MLP.forward's four-row blocking replaced, and the
// row-at-a-time backward pass that TrainStep's blocked walk over live
// rows replaced, each calling the activation and its derivative once
// per unit. They are the oracles the fast paths are pinned to, bit for
// bit.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// apply is the activation at one pre-activation sum, as MLP evaluated
// it before the per-layer pass.
func (a Activation) apply(x float64) float64 {
	switch a {
	case ActReLU:
		if x < 0 {
			return 0
		}
		return x
	default:
		return x
	}
}

// derivative is expressed in terms of the activation output y.
func (a Activation) derivative(y float64) float64 {
	switch a {
	case ActReLU:
		if y > 0 {
			return 1
		}
		return 0
	default:
		return 1
	}
}

// forwardNaive evaluates m on x one unit at a time, each unit one
// accumulator summing w*in[j] from j = 0 and then adding its bias,
// into fresh buffers so it shares nothing with m's scratch. It returns
// every layer's activations, x itself first.
func forwardNaive(m *MLP, x []float64) [][]float64 {
	acts := [][]float64{x}
	for _, l := range m.layers {
		in := acts[len(acts)-1]
		out := make([]float64, l.w.Rows)
		for i := range out {
			var s float64
			for j, w := range l.w.Row(i) {
				s += w * in[j]
			}
			s += l.b[i]
			out[i] = l.act.apply(s)
		}
		acts = append(acts, out)
	}
	return acts
}

// trainStepNaive is TrainStep as it was before its backward pass was
// blocked: a full forward pass, then every row of every layer in order,
// each adding row[j]*delta[i] to the error at the layer's input and
// taking its SGD step in the same sweep. Besides the loss it returns
// how many rows of each layer had a non-zero error.
func trainStepNaive(m *MLP, x, target []float64, mask []bool) (float64, []int) {
	acts := forwardNaive(m, x)
	out := acts[len(acts)-1]
	delta := make([]float64, len(out))
	var loss float64
	for i := range out {
		if mask != nil && !mask[i] {
			continue
		}
		e := out[i] - target[i]
		delta[i] = e * m.layers[len(m.layers)-1].act.derivative(out[i])
		loss += e * e
	}
	lr := m.LearningRate
	if lr == 0 {
		lr = 1e-3
	}
	live := make([]int, len(m.layers))
	for li := len(m.layers) - 1; li >= 0; li-- {
		l := m.layers[li]
		in := acts[li]
		var nextDelta []float64
		if li > 0 {
			nextDelta = make([]float64, len(in))
		}
		for i := 0; i < l.w.Rows; i++ {
			d := delta[i]
			if d == 0 {
				continue
			}
			live[li]++
			if m.GradClip > 0 {
				d = Clamp(d, -m.GradClip, m.GradClip)
			}
			row := l.w.Row(i)
			for j := range row {
				if nextDelta != nil {
					nextDelta[j] += row[j] * delta[i]
				}
				row[j] -= lr * d * in[j]
			}
			l.b[i] -= lr * d
		}
		if li > 0 {
			prevAct := m.layers[li-1].act
			for j := range nextDelta {
				nextDelta[j] *= prevAct.derivative(acts[li][j])
			}
			delta = nextDelta
		}
	}
	return loss, live
}

// TestForwardMatchesNaive pins the blocked forward pass to the naive
// one bit for bit, with training steps in between so the weights and
// biases keep moving. The widths leave 0, 1, 2 and 3 units after the
// last block of four, and every layer runs each activation in turn.
func TestForwardMatchesNaive(t *testing.T) {
	shapes := [][]int{{13, 32, 32, 9}, {1, 1}, {3, 5, 7}, {7, 33, 2}}
	acts := map[Activation]string{ActReLU: "relu", ActIdentity: "identity"}
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
					want := forwardNaive(m, x)[len(widths)-1]
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

// TestTrainStepMatchesNaive pins TrainStep to the row-at-a-time step bit
// for bit: after every step the loss and every weight and bias must
// agree. The steps mix no mask, one-unit, multi-unit and all-false
// masks, with and without gradient clipping, on NewMLP's linear output
// layer and on a ReLU one, and every fifth step's target is the
// network's own output, so every error is zero. The widths and the ReLU
// units that are off leave every count of live rows modulo 4, which the
// test checks it reached.
func TestTrainStepMatchesNaive(t *testing.T) {
	shapes := [][]int{{13, 32, 32, 9}, {1, 1}, {3, 5, 7}, {7, 33, 2}}
	outActs := []struct {
		act  Activation
		name string
	}{{ActIdentity, "identity"}, {ActReLU, "relu"}}
	var residues [4]bool // live-row counts mod 4 seen in layers that pass an error down
	for _, widths := range shapes {
		for _, clip := range []float64{0, 1} {
			for _, oa := range outActs {
				t.Run(fmt.Sprintf("%v/clip=%v/out=%s", widths, clip, oa.name), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(len(widths)*10) + int64(clip) + 2*int64(oa.act)))
					fast := NewMLP(rng, widths...)
					fast.LearningRate = 5e-2
					fast.GradClip = clip
					fast.layers[len(fast.layers)-1].act = oa.act
					for li := range fast.layers {
						for i := range fast.layers[li].b {
							fast.layers[li].b[i] = rng.NormFloat64()
						}
					}
					naive := fast.Clone()
					trainAgainstNaive(t, fast, naive, rng, &residues)
				})
			}
		}
	}
	for r, seen := range residues {
		if !seen {
			t.Errorf("no step had a live-row count of %d mod 4 in a layer that passes its error down", r)
		}
	}
}

// trainAgainstNaive takes 60 steps on fast with TrainStep and on naive,
// its clone, with trainStepNaive, and fails at the first loss, weight or
// bias whose bits differ. It marks in residues the live-row counts
// modulo 4 that the layers passing an error down had.
func trainAgainstNaive(t *testing.T, fast, naive *MLP, rng *rand.Rand, residues *[4]bool) {
	t.Helper()
	widths := fast.Widths()
	in, out := widths[0], widths[len(widths)-1]
	x := make([]float64, in)
	target := make([]float64, out)
	mask := make([]bool, out)
	for step := 0; step < 60; step++ {
		for j := range x {
			x[j] = rng.Float64()*4 - 2
		}
		for i := range target {
			target[i] = 4 * rng.NormFloat64()
		}
		clear(mask)
		var m []bool
		switch step % 4 {
		case 1:
			mask[rng.Intn(out)] = true
			m = mask
		case 2:
			for i := range mask {
				mask[i] = rng.Intn(2) == 0
			}
			m = mask
		case 3:
			m = mask // all false
		}
		if step%5 == 4 {
			copy(target, forwardNaive(naive, x)[len(widths)-1])
		}
		got := fast.TrainStep(x, target, m)
		want, live := trainStepNaive(naive, x, target, m)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d: loss %v, naive %v", step, got, want)
		}
		for li := range fast.layers {
			fl, nl := fast.layers[li], naive.layers[li]
			for k, w := range fl.w.Data {
				if math.Float64bits(w) != math.Float64bits(nl.w.Data[k]) {
					t.Fatalf("step %d layer %d weight %d: %v, naive %v", step, li, k, w, nl.w.Data[k])
				}
			}
			for i, b := range fl.b {
				if math.Float64bits(b) != math.Float64bits(nl.b[i]) {
					t.Fatalf("step %d layer %d bias %d: %v, naive %v", step, li, i, b, nl.b[i])
				}
			}
			if li > 0 {
				residues[live[li]%4] = true
			}
		}
	}
}

// TestActivationSpecialValues pins the per-layer activation pass and
// the derivative scaling in liveRows to the per-unit apply and
// derivative on the values where forms of ReLU part ways: signed
// zeros, subnormals, infinities and NaNs of both signs.
func TestActivationSpecialValues(t *testing.T) {
	negNaN := math.Float64frombits(math.Float64bits(math.NaN()) | 1<<63)
	special := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, math.Inf(1), math.Inf(-1), math.NaN(), negNaN, 1.5, -1.5}
	for _, act := range []Activation{ActReLU, ActIdentity} {
		l := layer{act: act}
		v := append([]float64(nil), special...)
		l.activate(v)
		for i, x := range special {
			if want := act.apply(x); math.Float64bits(v[i]) != math.Float64bits(want) {
				t.Errorf("act %d: activate(%v) = %#x, apply = %#x", act, x, math.Float64bits(v[i]), math.Float64bits(want))
			}
		}
		// Every error against every output value: liveRows must scale
		// each as d*derivative(y) and keep exactly the non-zero ones.
		var y, delta, want []float64
		for _, yv := range special {
			for _, d := range special {
				y = append(y, yv)
				delta = append(delta, d)
				want = append(want, d*act.derivative(yv))
			}
		}
		live := make([]int, len(delta))
		n := l.liveRows(y, delta, live)
		k := 0
		for i := range want {
			if math.Float64bits(delta[i]) != math.Float64bits(want[i]) {
				t.Errorf("act %d: error %v at output %v scaled to %#x, want %#x", act, special[i%len(special)], y[i], math.Float64bits(delta[i]), math.Float64bits(want[i]))
			}
			if want[i] != 0 {
				if k >= n || live[k] != i {
					t.Fatalf("act %d: row %d (error %v) missing from the live rows %v", act, i, want[i], live[:n])
				}
				k++
			}
		}
		if k != n {
			t.Errorf("act %d: %d live rows, want %d", act, n, k)
		}
	}
}
