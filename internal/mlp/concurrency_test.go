package mlp

import (
	"math/rand"
	"sync"
	"testing"

	"mlimp/internal/fixed"
)

// TestForwardConcurrent pins that inference only reads the net: several
// goroutines run Forward and ForwardQuant on one trained net, whose
// training scratch already exists, and all must see the serial results.
// Run it under -race.
func TestForwardConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := New(rng, 2, 16, 8, 1)
	var xs, ys [][]float64
	for i := 0; i < 64; i++ {
		a, b := rng.Float64(), rng.Float64()
		xs = append(xs, []float64{a, b})
		ys = append(ys, []float64{a * b})
	}
	n.Fit(rng, xs, ys, 5, 1e-2)
	q := []fixed.Format{fixed.W8}
	want := make([][2]float64, len(xs))
	for i, x := range xs {
		want[i] = [2]float64{n.Forward(x)[0], n.ForwardQuant(x, q)[0]}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, x := range xs {
				if got := [2]float64{n.Forward(x)[0], n.ForwardQuant(x, q)[0]}; got != want[i] {
					t.Errorf("input %d: concurrent inference %v, serial %v", i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
