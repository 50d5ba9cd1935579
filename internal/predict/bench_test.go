package predict

import (
	"math/rand"
	"testing"
)

// BenchmarkRefit measures an online refit like the serving front
// end's: per-sample Adam over a fixed 256-observation window
// (SRAM-heavy, like serving's) for 10 epochs, on a Clone of a trained
// predictor so every iteration starts from the same state. "fresh"
// starts at Adam step 4,800, where the bias corrections still divide;
// "warm" starts past step 37,412, where both are exactly 1.0 and the
// divisions are skipped. allocs/op is the clone's one-off training
// scratch; a refit of a warmed-up predictor allocates nothing.
func BenchmarkRefit(b *testing.B) {
	subs := sampleSubgraphs(b, 51, 112)
	train, pool := subs[:48], subs[48:]
	const f = 128
	rng := rand.New(rand.NewSource(52))
	fresh := Train(rng, train, f, TrainConfig{Epochs: 100, LR: 2e-3})
	warm := Train(rng, train, f, TrainConfig{Epochs: 800, LR: 2e-3})
	obs := driftedObservations(fresh, rng, pool, f, 256)
	for _, c := range []struct {
		name string
		base *MLP
	}{{"fresh", fresh}, {"warm", warm}} {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(53))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p := c.base.Clone()
				rng.Seed(53)
				b.StartTimer()
				p.Refit(rng, obs, 10, 1e-3)
			}
		})
	}
}
