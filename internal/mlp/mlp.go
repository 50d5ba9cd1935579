// Package mlp is a from-scratch feed-forward neural network with Adam
// training — the substrate of MLIMP's performance predictor ("The
// regressors have two hidden layers with 16 and 8 nodes", Section III-E).
// float64 throughout: the predictor runs on the host CPU, not in memory.
package mlp

import (
	"fmt"
	"math"
	"math/rand"

	"mlimp/internal/fixed"
)

// Net is a fully connected feed-forward network with tanh hidden
// activations and a linear output layer.
//
// Forward and ForwardQuant only read the network, so any number of
// goroutines may run inference on one Net at once. TrainStep and Fit
// update it in place and reuse per-net training scratch: they are not
// safe for concurrent use with any other call on the same Net. Clone
// never shares that scratch, so clones train independently.
type Net struct {
	sizes   []int
	weights [][][]float64 // [layer][out][in]
	biases  [][]float64   // [layer][out]

	// Adam state.
	mW, vW [][][]float64
	mB, vB [][]float64
	step   int

	train *trainScratch // built by the first TrainStep
}

// trainScratch holds the working buffers of TrainStep.
type trainScratch struct {
	acts        [][]float64 // acts[0] is the input, acts[l+1] weight layer l's output
	delta, next []float64   // backpropagated deltas of two adjacent layers
}

// New builds a network with the given layer sizes (inputs first, output
// last), Xavier-initialised from rng.
func New(rng *rand.Rand, sizes ...int) *Net {
	if len(sizes) < 2 {
		panic("mlp: need at least input and output sizes")
	}
	for _, s := range sizes {
		if s <= 0 {
			panic("mlp: layer sizes must be positive")
		}
	}
	n := &Net{sizes: append([]int(nil), sizes...)}
	for l := 1; l < len(sizes); l++ {
		in, out := sizes[l-1], sizes[l]
		scale := math.Sqrt(2.0 / float64(in+out))
		w := make([][]float64, out)
		mw := make([][]float64, out)
		vw := make([][]float64, out)
		for o := range w {
			w[o] = make([]float64, in)
			mw[o] = make([]float64, in)
			vw[o] = make([]float64, in)
			for i := range w[o] {
				w[o][i] = rng.NormFloat64() * scale
			}
		}
		n.weights = append(n.weights, w)
		n.mW = append(n.mW, mw)
		n.vW = append(n.vW, vw)
		n.biases = append(n.biases, make([]float64, out))
		n.mB = append(n.mB, make([]float64, out))
		n.vB = append(n.vB, make([]float64, out))
	}
	return n
}

// Clone returns a deep copy of the network, including its Adam state,
// so online fine-tuning of the copy (predictor retraining in the
// serving front end) never perturbs the original.
func (n *Net) Clone() *Net {
	c := &Net{sizes: append([]int(nil), n.sizes...), step: n.step}
	c.weights = clone3(n.weights)
	c.mW = clone3(n.mW)
	c.vW = clone3(n.vW)
	c.biases = clone2(n.biases)
	c.mB = clone2(n.mB)
	c.vB = clone2(n.vB)
	return c
}

func clone2(src [][]float64) [][]float64 {
	out := make([][]float64, len(src))
	for i, row := range src {
		out[i] = append([]float64(nil), row...)
	}
	return out
}

func clone3(src [][][]float64) [][][]float64 {
	out := make([][][]float64, len(src))
	for i, m := range src {
		out[i] = clone2(m)
	}
	return out
}

// NumParams returns the trainable parameter count.
func (n *Net) NumParams() int {
	total := 0
	for l := range n.weights {
		total += len(n.weights[l])*len(n.weights[l][0]) + len(n.biases[l])
	}
	return total
}

func (n *Net) checkInput(x []float64) {
	if len(x) != n.sizes[0] {
		panic(fmt.Sprintf("mlp: input size %d, want %d", len(x), n.sizes[0]))
	}
}

// layer writes weight layer l's activations for input in to out: tanh
// on hidden layers, linear on the output layer.
func (n *Net) layer(l int, in, out []float64) {
	for o := range out {
		s := n.biases[l][o]
		row := n.weights[l][o]
		for i, v := range in {
			s += row[i] * v
		}
		if l < len(n.weights)-1 {
			s = math.Tanh(s)
		}
		out[o] = s
	}
}

// Forward runs inference and returns the output vector.
func (n *Net) Forward(x []float64) []float64 {
	n.checkInput(x)
	cur := x
	for l := range n.weights {
		next := make([]float64, n.sizes[l+1])
		n.layer(l, cur, next)
		cur = next
	}
	return cur
}

// ForwardQuant runs inference with each layer's activations snapped to
// a fixed-point grid: formats[l] quantises the output of weight layer l
// (the last entry repeats for deeper layers; nil formats is plain
// Forward). This is the functional model of the predictor MLP running
// on reduced-precision in-memory hardware — weights stay float64 (they
// live on the host), but everything a narrow device stores between
// layers rounds to its grid and clamps to its range.
func (n *Net) ForwardQuant(x []float64, formats []fixed.Format) []float64 {
	if len(formats) == 0 {
		return n.Forward(x)
	}
	n.checkInput(x)
	cur := x
	for l := range n.weights {
		f := formats[len(formats)-1]
		if l < len(formats) {
			f = formats[l]
		}
		next := make([]float64, n.sizes[l+1])
		n.layer(l, cur, next)
		for o, s := range next {
			next[o] = f.Float(f.FromFloat(s))
		}
		cur = next
	}
	return cur
}

// scratch returns the net's training buffers, building them on first use.
func (n *Net) scratch() *trainScratch {
	if n.train == nil {
		sc := &trainScratch{acts: make([][]float64, len(n.sizes))}
		width := 0
		for l, s := range n.sizes {
			sc.acts[l] = make([]float64, s)
			width = max(width, s)
		}
		sc.delta, sc.next = make([]float64, width), make([]float64, width)
		n.train = sc
	}
	return n.train
}

// Adam hyperparameters.
const (
	beta1 = 0.9
	beta2 = 0.999
	eps   = 1e-8
)

// TrainStep performs one Adam update on a single (x, y) pair with mean
// squared error loss and returns the sample loss before the update. It
// allocates nothing once the net's training scratch exists.
func (n *Net) TrainStep(x, y []float64, lr float64) float64 {
	n.checkInput(x)
	sc := n.scratch()
	acts := sc.acts
	copy(acts[0], x)
	for l := range n.weights {
		n.layer(l, acts[l], acts[l+1])
	}
	out := acts[len(acts)-1]
	if len(y) != len(out) {
		panic("mlp: target size mismatch")
	}
	// Output delta (linear layer, MSE): d = out - y.
	delta := sc.delta[:len(out)]
	var loss float64
	for i := range out {
		d := out[i] - y[i]
		delta[i] = 2 * d / float64(len(out))
		loss += d * d
	}
	loss /= float64(len(out))

	n.step++
	for l := len(n.weights) - 1; l >= 0; l-- {
		in := acts[l]
		var next []float64
		if l > 0 {
			next = sc.next[:len(in)]
			clear(next)
		}
		for o, row := range n.weights[l] {
			d := delta[o]
			mw, vw := n.mW[l][o], n.vW[l][o]
			for i := range row {
				if next != nil {
					next[i] += row[i] * d
				}
				g := d * in[i]
				mw[i] = beta1*mw[i] + (1-beta1)*g
				vw[i] = beta2*vw[i] + (1-beta2)*g*g
			}
			n.mB[l][o] = beta1*n.mB[l][o] + (1-beta1)*d
			n.vB[l][o] = beta2*n.vB[l][o] + (1-beta2)*d*d
		}
		// Apply tanh derivative for the layer below (its outputs were
		// tanh-activated).
		if l > 0 {
			for i, a := range in {
				next[i] *= 1 - a*a
			}
			delta = next
			sc.delta, sc.next = sc.next, sc.delta
		}
	}
	n.apply(lr)
	return loss
}

// apply performs the bias-corrected Adam parameter update.
func (n *Net) apply(lr float64) {
	c1 := 1 - math.Pow(beta1, float64(n.step))
	c2 := 1 - math.Pow(beta2, float64(n.step))
	for l := range n.weights {
		for o := range n.weights[l] {
			for i := range n.weights[l][o] {
				mHat := n.mW[l][o][i] / c1
				vHat := n.vW[l][o][i] / c2
				n.weights[l][o][i] -= lr * mHat / (math.Sqrt(vHat) + eps)
			}
			mHat := n.mB[l][o] / c1
			vHat := n.vB[l][o] / c2
			n.biases[l][o] -= lr * mHat / (math.Sqrt(vHat) + eps)
		}
	}
}

// Fit trains on the dataset for the given number of epochs with
// per-sample Adam updates in a shuffled order, returning the final mean
// epoch loss.
func (n *Net) Fit(rng *rand.Rand, xs, ys [][]float64, epochs int, lr float64) float64 {
	if len(xs) != len(ys) || len(xs) == 0 {
		panic("mlp: bad training set")
	}
	var last float64
	for e := 0; e < epochs; e++ {
		perm := rng.Perm(len(xs))
		var sum float64
		for _, i := range perm {
			sum += n.TrainStep(xs[i], ys[i], lr)
		}
		last = sum / float64(len(xs))
	}
	return last
}
