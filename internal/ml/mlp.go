package ml

import (
	"fmt"
	"math"
	"math/rand"
)

// Activation selects a layer nonlinearity.
type Activation int

const (
	// ActReLU is max(0, x).
	ActReLU Activation = iota
	// ActTanh is the hyperbolic tangent.
	ActTanh
	// ActIdentity passes values through (output layers of regressors).
	ActIdentity
)

func (a Activation) apply(x float64) float64 {
	switch a {
	case ActReLU:
		if x < 0 {
			return 0
		}
		return x
	case ActTanh:
		return math.Tanh(x)
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
	case ActTanh:
		return 1 - y*y
	default:
		return 1
	}
}

type layer struct {
	w   *Matrix // out × in
	b   []float64
	act Activation
}

// MLP is a feed-forward network trained with backpropagation and SGD
// (with optional gradient clipping). It is the function approximator
// behind the DQN in internal/rl.
//
// An MLP is not safe for concurrent use, not even by concurrent
// Forward calls: evaluation and training run in scratch buffers the
// network owns and reuses, which keeps both allocation-free.
type MLP struct {
	layers []layer
	// LearningRate is the SGD step size (default 1e-3 if zero).
	LearningRate float64
	// GradClip bounds each gradient component's magnitude; 0 disables.
	GradClip float64

	// Scratch, built on first use: acts[0] aliases the current input
	// and acts[i+1] holds layer i's activations; deltas[i] holds the
	// error at layer i's output during TrainStep.
	acts   [][]float64
	deltas [][]float64
}

// NewMLP builds a network with the given layer widths, e.g.
// NewMLP(rng, 8, 32, 32, 4) for 8 inputs, two hidden layers of 32, and
// 4 outputs. Hidden layers use ReLU; the output layer is linear.
// Weights use He initialization from the provided source.
func NewMLP(rng *rand.Rand, widths ...int) *MLP {
	if len(widths) < 2 {
		panic("ml: MLP needs at least input and output widths")
	}
	m := &MLP{LearningRate: 1e-3}
	for i := 0; i < len(widths)-1; i++ {
		in, out := widths[i], widths[i+1]
		w := NewMatrix(out, in)
		scale := math.Sqrt(2.0 / float64(in))
		for k := range w.Data {
			w.Data[k] = rng.NormFloat64() * scale
		}
		act := ActReLU
		if i == len(widths)-2 {
			act = ActIdentity
		}
		m.layers = append(m.layers, layer{w: w, b: make([]float64, out), act: act})
	}
	return m
}

// Widths returns the layer widths (input first).
func (m *MLP) Widths() []int {
	out := []int{m.layers[0].w.Cols}
	for _, l := range m.layers {
		out = append(out, l.w.Rows)
	}
	return out
}

// Forward evaluates the network on one input vector. The result is the
// network's own output buffer: it stays valid until the next Forward or
// TrainStep on this network, and callers that keep it must copy it.
func (m *MLP) Forward(x []float64) []float64 {
	acts := m.forward(x)
	return acts[len(acts)-1]
}

// forward evaluates the network into its scratch and returns the
// activations per layer (acts[0] is x itself). Each unit sums its
// weighted inputs in the same order and expression shape as
// Matrix.MulVec, then adds its bias, so the result is bit-identical to
// a MulVec-then-bias evaluation.
func (m *MLP) forward(x []float64) [][]float64 {
	if m.acts == nil {
		m.acts = make([][]float64, len(m.layers)+1)
		m.deltas = make([][]float64, len(m.layers))
		for i, l := range m.layers {
			m.acts[i+1] = make([]float64, l.w.Rows)
			m.deltas[i] = make([]float64, l.w.Rows)
		}
	}
	if len(x) != m.layers[0].w.Cols {
		panic(fmt.Sprintf("ml: input length %d, network takes %d", len(x), m.layers[0].w.Cols))
	}
	m.acts[0] = x
	for li, l := range m.layers {
		in, out := m.acts[li], m.acts[li+1]
		for i := range out {
			var s float64
			for j, w := range l.w.Row(i) {
				s += w * in[j]
			}
			s += l.b[i]
			out[i] = l.act.apply(s)
		}
	}
	return m.acts
}

// TrainStep performs one backpropagation step toward target on a single
// example, minimizing ½‖out − target‖². mask, if non-nil, zeroes the
// error on unmasked outputs — the DQN updates only the taken action's
// Q-value. Returns the (masked) squared error before the step. target
// must not be this network's own Forward output, which the step's
// forward pass overwrites.
func (m *MLP) TrainStep(x, target []float64, mask []bool) float64 {
	acts := m.forward(x)
	out := acts[len(acts)-1]
	if len(target) != len(out) {
		panic(fmt.Sprintf("ml: target length %d, output %d", len(target), len(out)))
	}
	// Output delta.
	delta := m.deltas[len(m.deltas)-1]
	var loss float64
	for i := range out {
		if mask != nil && !mask[i] {
			delta[i] = 0
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
	// Backpropagate layer by layer.
	for li := len(m.layers) - 1; li >= 0; li-- {
		l := m.layers[li]
		in := acts[li]
		var nextDelta []float64
		if li > 0 {
			nextDelta = m.deltas[li-1]
			clear(nextDelta)
		}
		for i := 0; i < l.w.Rows; i++ {
			d := delta[i]
			if d == 0 {
				continue
			}
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
	return loss
}

// Clone returns a deep copy — used for DQN target networks. The copy
// builds its own scratch on first use and shares none with m.
func (m *MLP) Clone() *MLP {
	c := &MLP{LearningRate: m.LearningRate, GradClip: m.GradClip}
	for _, l := range m.layers {
		c.layers = append(c.layers, layer{
			w:   l.w.Clone(),
			b:   append([]float64(nil), l.b...),
			act: l.act,
		})
	}
	return c
}

// CopyFrom overwrites this network's parameters with src's (same
// architecture required) — the DQN's periodic target sync. Scratch is
// left alone: it holds no state between calls.
func (m *MLP) CopyFrom(src *MLP) {
	if len(m.layers) != len(src.layers) {
		panic("ml: CopyFrom architecture mismatch")
	}
	for i := range m.layers {
		if m.layers[i].w.Rows != src.layers[i].w.Rows || m.layers[i].w.Cols != src.layers[i].w.Cols {
			panic("ml: CopyFrom layer shape mismatch")
		}
		copy(m.layers[i].w.Data, src.layers[i].w.Data)
		copy(m.layers[i].b, src.layers[i].b)
	}
}
