package ml

import (
	"fmt"
	"math"
	"math/rand"
)

// Activation selects a layer nonlinearity.
type Activation int

const (
	// ActReLU is the rectifier: 0 where x < 0, else x.
	ActReLU Activation = iota
	// ActIdentity passes values through (output layers of regressors).
	ActIdentity
)

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
	// error at layer i's output during TrainStep, and live the indices
	// of one layer's rows whose error is non-zero.
	acts   [][]float64
	deltas [][]float64
	live   []int
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
// After a masked TrainStep the buffer holds fresh values only at the
// masked outputs.
func (m *MLP) Forward(x []float64) []float64 {
	return m.forward(x, nil)
}

// forward evaluates the network into its scratch and returns its output
// buffer. Every hidden unit is evaluated; of the output layer, only the
// units mask selects, or all of them if mask is nil.
func (m *MLP) forward(x []float64, mask []bool) []float64 {
	if m.acts == nil {
		m.acts = make([][]float64, len(m.layers)+1)
		m.deltas = make([][]float64, len(m.layers))
		widest := 0
		for i, l := range m.layers {
			m.acts[i+1] = make([]float64, l.w.Rows)
			m.deltas[i] = make([]float64, l.w.Rows)
			widest = max(widest, l.w.Rows)
		}
		m.live = make([]int, widest)
	}
	if len(x) != m.layers[0].w.Cols {
		panic(fmt.Sprintf("ml: input length %d, network takes %d", len(x), m.layers[0].w.Cols))
	}
	m.acts[0] = x
	last := len(m.layers) - 1
	for li := range m.layers[:last] {
		m.layers[li].eval(m.acts[li], m.acts[li+1])
	}
	out := m.acts[last+1]
	if mask == nil {
		m.layers[last].eval(m.acts[last], out)
	} else {
		m.layers[last].evalMasked(m.acts[last], out, mask)
	}
	return out
}

// eval writes the layer's activations on input in to out, four units
// per sweep over in. Each of the four keeps its own accumulator, so
// their chains of dependent adds overlap instead of running one after
// another. Every unit still sums w*in[j] from j = 0 and then adds its
// bias, the order and expression shape of Matrix.MulVec, so the result
// is bit-identical to evaluating one unit at a time. The last
// len(out)%4 units run one at a time. The activation then runs in one
// pass over out.
func (l *layer) eval(in, out []float64) {
	n := len(in)
	w, b := l.w.Data, l.b
	i := 0
	for ; i+4 <= len(out); i += 4 {
		r0 := w[i*n:][:n]
		r1 := w[(i+1)*n:][:n]
		r2 := w[(i+2)*n:][:n]
		r3 := w[(i+3)*n:][:n]
		var s0, s1, s2, s3 float64
		for j, x := range in {
			s0 += r0[j] * x
			s1 += r1[j] * x
			s2 += r2[j] * x
			s3 += r3[j] * x
		}
		bi, oi := b[i:i+4], out[i:i+4]
		oi[0] = s0 + bi[0]
		oi[1] = s1 + bi[1]
		oi[2] = s2 + bi[2]
		oi[3] = s3 + bi[3]
	}
	for ; i < len(out); i++ {
		out[i] = l.sum(i, in)
	}
	l.activate(out)
}

// evalMasked writes the activations of the units mask selects, one at a
// time, and leaves the rest of out as it was.
func (l *layer) evalMasked(in, out []float64, mask []bool) {
	for i := range out {
		if mask[i] {
			out[i] = l.sum(i, in)
			l.activate(out[i : i+1])
		}
	}
}

// sum returns unit i's weighted sum of in plus its bias, before the
// activation.
func (l *layer) sum(i int, in []float64) float64 {
	r := l.w.Data[i*len(in):][:len(in)]
	var s float64
	for j, x := range in {
		s += r[j] * x
	}
	return s + l.b[i]
}

// activate applies the layer's activation to v in place. ReLU is
// x < 0 ? 0 : x, selected on the bits (+0's are all zero) so that the
// compiler emits a conditional move: a unit's sign is data, and a
// branch on it mispredicts about every other unit. The builtin
// max(x, 0) is not the same function bit for bit: it returns +0 for −0
// and may flip a NaN's sign.
func (l *layer) activate(v []float64) {
	if l.act != ActReLU {
		return
	}
	for i, x := range v {
		b := math.Float64bits(x)
		if x < 0 {
			b = 0
		}
		v[i] = math.Float64frombits(b)
	}
}

// TrainStep performs one backpropagation step toward target on a single
// example, minimizing ½‖out − target‖². mask, if non-nil, zeroes the
// error on unmasked outputs — the DQN updates only the taken action's
// Q-value — and the step's forward pass then evaluates the masked
// outputs only, so the output buffer Forward returns holds fresh values
// at those units alone. Returns the (masked) squared error before the
// step. target must not be this network's own Forward output, which the
// step's forward pass overwrites.
//
// The step is bit-identical to the textbook one that walks every row of
// every layer in order, adds row[j]*delta to the error at the layer's
// input and then takes the row's SGD step (trainStepNaive in
// naive_test.go). Rows whose error is zero change nothing there, so
// only the live rows are walked, four per sweep over the input (see
// layer.backward); each sum still takes its terms in row order and in
// the same expression shape.
func (m *MLP) TrainStep(x, target []float64, mask []bool) float64 {
	out := m.forward(x, mask)
	if len(target) != len(out) {
		panic(fmt.Sprintf("ml: target length %d, output %d", len(target), len(out)))
	}
	// Output error; layer.liveRows scales it by the derivative.
	last := len(m.layers) - 1
	delta := m.deltas[last]
	var loss float64
	for i := range out {
		if mask != nil && !mask[i] {
			delta[i] = 0
			continue
		}
		e := out[i] - target[i]
		delta[i] = e
		loss += e * e
	}
	lr := m.LearningRate
	if lr == 0 {
		lr = 1e-3
	}
	// Backpropagate layer by layer.
	for li := last; li >= 0; li-- {
		l := &m.layers[li]
		live := m.live[:l.liveRows(m.acts[li+1], delta, m.live)]
		if li == 0 {
			l.update(m.acts[0], delta, live, lr, m.GradClip)
			break
		}
		l.backward(m.acts[li], delta, m.deltas[li-1], live, lr, m.GradClip)
		delta = m.deltas[li-1]
	}
	return loss
}

// liveRows turns delta, the error at the layer's output y, into the
// error at its pre-activation sums by multiplying it by the
// activation's derivative, and writes the indices of the rows whose
// error is then non-zero to live, returning how many there are. ReLU's
// derivative is 1 where y > 0 and 0 elsewhere, selected on the bits as
// in activate; the identity's is 1, and x*1 is x. Neither the
// derivative nor the count branches on the data.
func (l *layer) liveRows(y, delta []float64, live []int) int {
	y, live = y[:len(delta)], live[:len(delta)]
	n := 0
	if l.act == ActReLU {
		for i, d := range delta {
			var g uint64
			if y[i] > 0 {
				g = 0x3ff0000000000000 // 1.0
			}
			d *= math.Float64frombits(g)
			delta[i] = d
			live[n] = i
			if d != 0 {
				n++
			}
		}
		return n
	}
	for i, d := range delta {
		live[n] = i
		if d != 0 {
			n++
		}
	}
	return n
}

// backward writes to next the error at the layer's input, the sum over
// the live rows of row[j]*delta[row], and takes each live row's SGD
// step in the same sweep. It walks the live rows four per sweep over
// the input, so each next[j] is loaded and stored, and each weight
// loaded, once per four rows; the adds into next[j] stay in row order.
// The error passed down uses each row's weights before its step and its
// unclipped delta.
func (l *layer) backward(in, delta, next []float64, live []int, lr, clip float64) {
	n := len(in)
	next = next[:n]
	clear(next)
	w, b := l.w.Data, l.b
	k := 0
	for ; k+4 <= len(live); k += 4 {
		i0, i1, i2, i3 := live[k], live[k+1], live[k+2], live[k+3]
		r0 := w[i0*n:][:n]
		r1 := w[i1*n:][:n]
		r2 := w[i2*n:][:n]
		r3 := w[i3*n:][:n]
		d0, d1, d2, d3 := delta[i0], delta[i1], delta[i2], delta[i3]
		a0, a1, a2, a3 := lr*clipped(d0, clip), lr*clipped(d1, clip), lr*clipped(d2, clip), lr*clipped(d3, clip)
		for j, t := range next {
			w0, w1, w2, w3 := r0[j], r1[j], r2[j], r3[j]
			t += w0 * d0
			t += w1 * d1
			t += w2 * d2
			t += w3 * d3
			next[j] = t
			x := in[j]
			r0[j] = w0 - a0*x
			r1[j] = w1 - a1*x
			r2[j] = w2 - a2*x
			r3[j] = w3 - a3*x
		}
		b[i0] -= a0
		b[i1] -= a1
		b[i2] -= a2
		b[i3] -= a3
	}
	for ; k < len(live); k++ {
		i := live[k]
		r := w[i*n:][:n]
		d := delta[i]
		for j, x := range r {
			next[j] += x * d
		}
		l.step(r, in, i, d, lr, clip)
	}
}

// update takes the SGD step of each live row of the first layer, which
// passes no error further down.
func (l *layer) update(in, delta []float64, live []int, lr, clip float64) {
	n := len(in)
	for _, i := range live {
		l.step(l.w.Data[i*n:][:n], in, i, delta[i], lr, clip)
	}
}

// step moves row i and its bias against the gradient of error d:
// row[j] -= lr*d*in[j] and b[i] -= lr*d, with d clipped. Go evaluates
// lr*d*in[j] as (lr*d)*in[j], so hoisting lr*d keeps the bits.
func (l *layer) step(row, in []float64, i int, d, lr, clip float64) {
	a := lr * clipped(d, clip)
	row = row[:len(in)]
	for j, x := range in {
		row[j] -= a * x
	}
	l.b[i] -= a
}

// clipped bounds the error d to ±clip when clip > 0.
func clipped(d, clip float64) float64 {
	if clip > 0 {
		return Clamp(d, -clip, clip)
	}
	return d
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
