package mlp

import (
	"math"
	"math/rand"
	"testing"

	"mlimp/internal/fixed"
)

func TestConstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := New(rng, 3, 16, 8, 1)
	// (3*16+16) + (16*8+8) + (8*1+1) = 64 + 136 + 9 = 209.
	if got := n.NumParams(); got != 209 {
		t.Errorf("NumParams = %d, want 209", got)
	}
	out := n.Forward([]float64{1, 2, 3})
	if len(out) != 1 || math.IsNaN(out[0]) {
		t.Errorf("Forward = %v", out)
	}
}

func TestConstructionPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i, f := range []func(){
		func() { New(rng, 3) },
		func() { New(rng, 3, 0, 1) },
		func() { New(rng, 2, 1).Forward([]float64{1, 2, 3}) },
		func() { New(rng, 2, 1).TrainStep([]float64{1, 2}, []float64{1, 2}, 0.01) },
		func() { New(rng, 2, 1).Fit(rng, nil, nil, 1, 0.01) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestLearnsLinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := New(rng, 2, 16, 8, 1)
	var xs, ys [][]float64
	for i := 0; i < 200; i++ {
		a, b := rng.Float64()*2-1, rng.Float64()*2-1
		xs = append(xs, []float64{a, b})
		ys = append(ys, []float64{0.5*a - 0.3*b + 0.1})
	}
	loss := n.Fit(rng, xs, ys, 200, 1e-3)
	if loss > 1e-3 {
		t.Errorf("final loss = %v, want < 1e-3", loss)
	}
	got := n.Forward([]float64{0.4, -0.2})[0]
	want := 0.5*0.4 - 0.3*-0.2 + 0.1
	if math.Abs(got-want) > 0.05 {
		t.Errorf("prediction %v, want %v", got, want)
	}
}

func TestLearnsNonlinearFunction(t *testing.T) {
	// The predictor's job is a non-linear regression (Section III-E);
	// the 16/8 architecture must fit a smooth nonlinearity.
	rng := rand.New(rand.NewSource(3))
	n := New(rng, 1, 16, 8, 1)
	var xs, ys [][]float64
	for i := 0; i < 300; i++ {
		x := rng.Float64()*4 - 2
		xs = append(xs, []float64{x})
		ys = append(ys, []float64{math.Sin(x)})
	}
	loss := n.Fit(rng, xs, ys, 300, 2e-3)
	if loss > 5e-3 {
		t.Errorf("final loss = %v", loss)
	}
	for _, x := range []float64{-1.5, -0.5, 0.5, 1.5} {
		got := n.Forward([]float64{x})[0]
		if math.Abs(got-math.Sin(x)) > 0.15 {
			t.Errorf("sin(%v): got %v want %v", x, got, math.Sin(x))
		}
	}
}

func TestTrainStepReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := New(rng, 2, 8, 1)
	x, y := []float64{0.5, -0.5}, []float64{0.7}
	first := n.TrainStep(x, y, 1e-2)
	var last float64
	for i := 0; i < 100; i++ {
		last = n.TrainStep(x, y, 1e-2)
	}
	if last >= first {
		t.Errorf("loss did not decrease: %v -> %v", first, last)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	build := func() []float64 {
		rng := rand.New(rand.NewSource(7))
		n := New(rng, 2, 16, 8, 1)
		xs := [][]float64{{0.1, 0.2}, {0.3, -0.4}}
		ys := [][]float64{{0.5}, {-0.1}}
		n.Fit(rng, xs, ys, 50, 1e-3)
		return n.Forward([]float64{0.2, 0.2})
	}
	a, b := build(), build()
	if a[0] != b[0] {
		t.Errorf("training not deterministic: %v vs %v", a, b)
	}
}

func TestMultiOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := New(rng, 2, 12, 2)
	var xs, ys [][]float64
	for i := 0; i < 200; i++ {
		a, b := rng.Float64(), rng.Float64()
		xs = append(xs, []float64{a, b})
		ys = append(ys, []float64{a + b, a - b})
	}
	n.Fit(rng, xs, ys, 150, 2e-3)
	out := n.Forward([]float64{0.3, 0.6})
	if math.Abs(out[0]-0.9) > 0.1 || math.Abs(out[1]+0.3) > 0.1 {
		t.Errorf("multi-output prediction = %v", out)
	}
}

func TestForwardQuant(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := New(rng, 2, 16, 8, 1)
	x := []float64{0.3, -0.2}
	// Nil formats is plain Forward.
	if got, want := n.ForwardQuant(x, nil), n.Forward(x); got[0] != want[0] {
		t.Errorf("nil formats: %v != %v", got, want)
	}
	// Full-width quantisation only snaps to the Q8.8 grid.
	w16 := n.ForwardQuant(x, []fixed.Format{fixed.W16})
	if math.Abs(w16[0]-n.Forward(x)[0]) > 1.0/256 {
		t.Errorf("W16 output %v strayed beyond one Q8.8 ulp", w16)
	}
	// Narrow outputs sit exactly on the W8 grid (1/16 steps).
	w8 := n.ForwardQuant(x, []fixed.Format{fixed.W8})
	if v := w8[0] * 16; v != math.Round(v) {
		t.Errorf("W8 output %v off the 1/16 grid", w8[0])
	}
	// A short format list repeats its last entry for deeper layers.
	mixed := n.ForwardQuant(x, []fixed.Format{fixed.W16, fixed.W8})
	if v := mixed[0] * 16; v != math.Round(v) {
		t.Errorf("tail format not applied: %v", mixed[0])
	}
}

// TestScalarMatchesForward pins the stack-buffer inference path to
// Forward bit for bit over seeded random single-output nets, trained a
// little so the weights are not just their initialisation. The last
// shape is wider than stackWidth and takes the heap fallback.
func TestScalarMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, sizes := range [][]int{
		{1, 1}, {3, 16, 8, 1}, {4, 16, 8, 1}, {7, stackWidth, 5, 1},
		{2, 9, 9, 9, 9, 1}, {5, stackWidth + 9, 3, 1},
	} {
		n := New(rng, sizes...)
		x, y := make([]float64, sizes[0]), []float64{rng.NormFloat64()}
		for s := 0; s < 20; s++ {
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			n.TrainStep(x, y, 1e-2)
		}
		for s := 0; s < 50; s++ {
			for i := range x {
				x[i] = rng.Float64()*4 - 2
			}
			got, want := n.Scalar(x), n.Forward(x)[0]
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("sizes %v input %v: Scalar %v, Forward %v", sizes, x, got, want)
			}
		}
	}
}

// TestScalarAllocatesNothing pins that inference on the predictor's
// shape stays on the stack, and that Scalar rejects multi-output nets.
func TestScalarAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := New(rng, 4, 16, 8, 1)
	x := []float64{0.1, -0.2, 0.3, 0.4}
	if a := testing.AllocsPerRun(100, func() { n.Scalar(x) }); a != 0 {
		t.Errorf("Scalar allocates %v times, want 0", a)
	}
	defer func() {
		if recover() == nil {
			t.Error("Scalar on a two-output net did not panic")
		}
	}()
	New(rng, 2, 3, 2).Scalar([]float64{1, 2})
}
