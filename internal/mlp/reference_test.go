package mlp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The reference trainer is the oracle for the differential tests: the
// textbook two-pass Adam step TrainStep must agree with bit for bit. The
// backward pass only accumulates moments; a separate apply pass then
// updates every parameter with bias corrections from math.Pow.

func refTrainStep(n *Net, x, y []float64, lr float64) float64 {
	n.checkInput(x)
	sc := n.scratch()
	acts := sc.acts
	copy(acts[0], x)
	for l := range n.weights {
		n.layer(l, acts[l], acts[l+1])
	}
	out := acts[len(acts)-1]
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
		if l > 0 {
			for i, a := range in {
				next[i] *= 1 - a*a
			}
			delta = next
			sc.delta, sc.next = sc.next, sc.delta
		}
	}
	refApply(n, lr)
	return loss
}

func refApply(n *Net, lr float64) {
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

// TestTrainStepMatchesReference runs the fused TrainStep and the
// reference side by side from one initialisation, in random sample
// order, past both bias-correction saturation points (steps 356 and
// 37,412), at each input width the predictor uses. Every step's loss and
// the final state must be bit-identical.
func TestTrainStepMatchesReference(t *testing.T) {
	const steps = 40_000
	for _, in := range []int{3, 4, 8} {
		rng := rand.New(rand.NewSource(int64(in)))
		n := New(rng, in, 16, 8, 1)
		ref := n.Clone()
		xs := make([][]float64, 256)
		ys := make([][]float64, len(xs))
		for i := range xs {
			xs[i] = make([]float64, in)
			s := 0.0
			for k := range xs[i] {
				xs[i][k] = rng.Float64()
				s += math.Sin(float64(k+1) * xs[i][k])
			}
			ys[i] = []float64{s / float64(in)}
		}
		for s := 1; s <= steps; s++ {
			i := rng.Intn(len(xs))
			lr := 2e-3
			if s%2 == 0 {
				lr = 1e-3
			}
			got, want := n.TrainStep(xs[i], ys[i], lr), refTrainStep(ref, xs[i], ys[i], lr)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%d-16-8-1 step %d: loss %v, reference %v", in, s, got, want)
			}
		}
		if got, want := n.Digest(), ref.Digest(); got != want {
			t.Errorf("%d-16-8-1 after %d steps: state %s, reference %s", in, steps, got, want)
		}
	}
}

// TestCorrectionTableBoundary pins where the bias corrections saturate
// (steps 356 and 37,412) and that the tables' "1.0 from here on" holds:
// every entry is the math.Pow correction and below 1.0, and the
// correction is exactly 1.0 right after each table's end and for
// 2,000,000 steps beyond it.
func TestCorrectionTableBoundary(t *testing.T) {
	newAdamStep(1, 0) // builds the tables
	for _, c := range []struct {
		beta float64
		tab  []float64
	}{{beta1, corr1[:]}, {beta2, corr2[:]}} {
		for s := 1; s <= len(c.tab); s++ {
			if want := 1 - math.Pow(c.beta, float64(s)); correction(c.tab, s) != want || want == 1 {
				t.Fatalf("beta %v step %d: table %v, math.Pow %v", c.beta, s, correction(c.tab, s), want)
			}
		}
		for s := len(c.tab) + 1; s <= len(c.tab)+2_000_000; s++ {
			if got := 1 - math.Pow(c.beta, float64(s)); got != 1 {
				t.Fatalf("beta %v step %d: correction %v left 1.0", c.beta, s, got)
			}
		}
	}
	for _, s := range []int{355, 356, 37_411, 37_412, 37_413, 10_000_000} {
		a := newAdamStep(s, 1e-3)
		if want := s < 37_412; a.corrected != want {
			t.Errorf("step %d: corrected = %v, want %v", s, a.corrected, want)
		}
	}
}

// TestShuffleMatchesPerm pins Fit's allocation-free epoch order to
// rng.Perm's: same permutation, same random numbers drawn.
func TestShuffleMatchesPerm(t *testing.T) {
	a, b := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	for _, n := range []int{1, 2, 7, 64, 256, 1000} {
		perm := make([]int, n)
		shuffle(a, perm)
		if want := b.Perm(n); !slices.Equal(perm, want) {
			t.Fatalf("n=%d: shuffle %v, Perm %v", n, perm, want)
		}
		if a.Int63() != b.Int63() {
			t.Fatalf("n=%d: shuffle and Perm drew different random numbers", n)
		}
	}
}
