package mlp

import (
	"math/rand"
	"testing"
)

// BenchmarkForward measures predictor inference at the paper's
// regressor shape (two hidden layers of 16 and 8, Section III-E) — the
// call the scheduler makes once per job dispatch, so its cost is pure
// overhead on every scheduling decision.
func BenchmarkForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := New(rng, 8, 16, 8, 1)
	x := make([]float64, 8)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Forward(x)
	}
}

// BenchmarkTrainStep measures one Adam update at the same shape — the
// per-sample cost of the per-mother-graph training loop.
func BenchmarkTrainStep(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	n := New(rng, 8, 16, 8, 1)
	x := make([]float64, 8)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := []float64{0.5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.TrainStep(x, y, 1e-3)
	}
}

// BenchmarkFit measures one shuffled epoch over 256 samples at the
// cycle regressor's shape (4 inputs, 16/8 hidden) — the unit of work of
// both per-mother-graph training and online refits.
func BenchmarkFit(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n := New(rng, 4, 16, 8, 1)
	xs, ys := regressionSet(rng, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Fit(rng, xs, ys, 1, 1e-3)
	}
}
