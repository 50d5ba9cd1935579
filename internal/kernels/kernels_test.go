package kernels

import (
	"math"
	"math/rand"
	"testing"

	"mlimp/internal/fixed"
	"mlimp/internal/graph"
	"mlimp/internal/isa"
	"mlimp/internal/mem"
	"mlimp/internal/tensor"
)

func randomCSR(rng *rand.Rand, rows, cols, nnz int) *tensor.CSR {
	var coords []tensor.Coord
	for i := 0; i < nnz; i++ {
		coords = append(coords, tensor.Coord{
			Row: rng.Intn(rows), Col: rng.Intn(cols),
			Val: fixed.FromFloat(rng.Float64()*0.5 + 0.1),
		})
	}
	return tensor.FromCOO(rows, cols, coords)
}

func TestSpMMEstimateBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomCSR(rng, 100, 100, 400)
	est := SpMM(mem.SRAMConfig, a, 128, 64, true)
	if est.Cycles <= 0 {
		t.Fatal("non-positive cycles")
	}
	if est.LoadBytes < int64(100*128*2) {
		t.Error("load bytes must include B")
	}
	if est.StoreBytes != 100*128*2 {
		t.Errorf("store bytes = %d", est.StoreBytes)
	}
	if est.Iterations != 1 {
		t.Errorf("iterations = %d", est.Iterations)
	}
}

// TestSpMMFootprintMatchesSpMM checks that SpMMFootprint reports the
// RepUnit, LoadBytes and StoreBytes of SpMM for random shapes on every
// target, at allocations below, at and above one replica.
func TestSpMMFootprintMatchesSpMM(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		rows, cols := 1+rng.Intn(600), 1+rng.Intn(3000)
		a := randomCSR(rng, rows, cols, rng.Intn(4*rows))
		f := []int{1, 16, 64, 128, 256, 602}[rng.Intn(6)]
		for _, tgt := range isa.Targets {
			cfg := mem.ConfigFor(tgt)
			repUnit, load, store := SpMMFootprint(cfg, a, f)
			for _, alloc := range []int{repUnit / 2, repUnit - 1, repUnit, repUnit + 1, 3*repUnit + 2} {
				if alloc < 1 {
					continue
				}
				est := SpMM(cfg, a, f, alloc, true)
				if est.RepUnit != repUnit || est.LoadBytes != load || est.StoreBytes != store {
					t.Fatalf("%v %dx%d nnz=%d f=%d alloc=%d: footprint (%d, %d, %d), SpMM (%d, %d, %d)",
						tgt, rows, cols, a.NNZ(), f, alloc, repUnit, load, store,
						est.RepUnit, est.LoadBytes, est.StoreBytes)
				}
			}
		}
	}
}

func TestSpMMMoreArraysIsFaster(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomCSR(rng, 400, 400, 4000)
	for _, cfg := range []mem.Config{mem.SRAMConfig, mem.DRAMConfig, mem.ReRAMConfig} {
		small := SpMM(cfg, a, 128, 2, true)
		large := SpMM(cfg, a, 128, 64, true)
		if large.Cycles > small.Cycles {
			t.Errorf("%s: more arrays slower: %d -> %d", cfg.Target, small.Cycles, large.Cycles)
		}
	}
}

func TestSpMMIteratesWhenWorkingSetDoesNotFit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomCSR(rng, 2000, 2000, 8000)
	// B = 2000x256x2B = 1 MB; one SRAM array = 8 KB, so 1 array forces
	// 128 iterations.
	est := SpMM(mem.SRAMConfig, a, 256, 1, true)
	if est.Iterations < 2 {
		t.Errorf("iterations = %d, want > 1", est.Iterations)
	}
	if est.Replicas != 1 {
		t.Errorf("replicas = %d", est.Replicas)
	}
}

func TestSpMMReplicationKicksIn(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomCSR(rng, 64, 64, 512)
	// B = 64x64x2 = 8 KB = exactly one SRAM array; 16 arrays -> 16
	// replicas.
	est := SpMM(mem.SRAMConfig, a, 64, 16, true)
	if est.Replicas != 16 {
		t.Errorf("replicas = %d, want 16", est.Replicas)
	}
	if est.RepUnit != 1 {
		t.Errorf("repunit = %d, want 1", est.RepUnit)
	}
}

func TestSpMMWeightedCostsMoreThanBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomCSR(rng, 100, 100, 600)
	w := SpMM(mem.SRAMConfig, a, 128, 8, true)
	b := SpMM(mem.SRAMConfig, a, 128, 8, false)
	if w.Cycles <= b.Cycles {
		t.Errorf("weighted %d <= binary %d", w.Cycles, b.Cycles)
	}
}

func TestSpMMDRAMUnderutilisedByNarrowFeatures(t *testing.T) {
	// Paper: "their SIMD slots cannot be fully utilized by GNNs of a
	// small feature vector size" — with equal array counts DRAM must
	// take more cycles than SRAM (and its clock is 8x slower on top).
	rng := rand.New(rand.NewSource(6))
	a := randomCSR(rng, 500, 500, 5000)
	s := SpMM(mem.SRAMConfig, a, 128, 8, true)
	d := SpMM(mem.DRAMConfig, a, 128, 8, true)
	if d.Cycles <= s.Cycles {
		t.Errorf("DRAM %d <= SRAM %d cycles", d.Cycles, s.Cycles)
	}
}

func TestGEMMEstimates(t *testing.T) {
	for _, cfg := range []mem.Config{mem.SRAMConfig, mem.DRAMConfig, mem.ReRAMConfig} {
		est := GEMM(cfg, 64, 128, 256, 32)
		if est.Cycles <= 0 {
			t.Errorf("%s: non-positive cycles", cfg.Target)
		}
		if est.LoadBytes != int64(64*128+128*256)*2 {
			t.Errorf("%s: load bytes = %d", cfg.Target, est.LoadBytes)
		}
		if est.StoreBytes != 64*256*2 {
			t.Errorf("%s: store bytes = %d", cfg.Target, est.StoreBytes)
		}
	}
	// ReRAM pays one-time weight programming.
	if GEMM(mem.ReRAMConfig, 64, 128, 256, 32).ProgramBytes != 128*256*2 {
		t.Error("ReRAM GEMM should bill weight programming")
	}
	if GEMM(mem.SRAMConfig, 64, 128, 256, 32).ProgramBytes != 0 {
		t.Error("SRAM GEMM should not bill programming")
	}
}

func TestGEMMScalesWithWork(t *testing.T) {
	small := GEMM(mem.SRAMConfig, 16, 128, 256, 16)
	big := GEMM(mem.SRAMConfig, 256, 128, 256, 16)
	if big.Cycles <= small.Cycles {
		t.Errorf("16x work not reflected: %d vs %d", small.Cycles, big.Cycles)
	}
}

func TestVadd(t *testing.T) {
	est := Vadd(mem.SRAMConfig, 1<<20, 16)
	// 16 arrays * 256 lanes = 4096; 1M elements -> 256 waves * 16 cyc.
	if est.Cycles != 256*16 {
		t.Errorf("vadd cycles = %d, want 4096", est.Cycles)
	}
	if est.LoadBytes != 4<<20 || est.StoreBytes != 2<<20 {
		t.Errorf("vadd bytes = %d/%d", est.LoadBytes, est.StoreBytes)
	}
}

func TestPanicsOnBadArguments(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomCSR(rng, 10, 10, 20)
	for i, f := range []func(){
		func() { SpMM(mem.SRAMConfig, a, 128, 0, true) },
		func() { SpMM(mem.SRAMConfig, a, 0, 4, true) },
		func() { GEMM(mem.SRAMConfig, 0, 1, 1, 4) },
		func() { GEMM(mem.SRAMConfig, 1, 1, 1, 0) },
		func() { Vadd(mem.SRAMConfig, 0, 4) },
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

func TestReuseCompareBStationaryWins(t *testing.T) {
	// Section III-D3: B-stationary beats C-stationary on both memory
	// traffic and compute for real sparse aggregation (paper: 4.3x
	// latency, 42x compute on ogbl-collab).
	rng := rand.New(rand.NewSource(8))
	d, _ := graph.DatasetByName("ogbl-collab")
	g := d.Generate(rng)
	s := graph.NewSampler(rng, g, 2, 0)
	sg := s.Sample(rng.Intn(g.N))
	b, c := ReuseCompare(mem.SRAMConfig, sg.Adj, 128, 16)
	if c.ComputeCycles <= b.ComputeCycles {
		t.Errorf("C-stationary compute %d <= B-stationary %d", c.ComputeCycles, b.ComputeCycles)
	}
	computeRatio := float64(c.ComputeCycles) / float64(b.ComputeCycles)
	if computeRatio < 3 {
		t.Errorf("compute ratio = %.1f, want a multi-x advantage", computeRatio)
	}
	if c.LoadBytes < b.LoadBytes {
		t.Errorf("C-stationary should not move less data: %d vs %d", c.LoadBytes, b.LoadBytes)
	}
}

// --- functional mapping validation ---

func TestGEMMViaSRAMMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := tensor.RandomDense(rng, 7, 12, 1.5)
	w := tensor.RandomDense(rng, 12, 9, 1.5)
	got := GEMMViaSRAM(x, w)
	want := tensor.GEMM(x, w)
	if !got.Equal(want) {
		t.Error("bit-serial GEMM mapping diverges from reference")
	}
}

func TestGEMMViaSRAMWideK(t *testing.T) {
	// k > 256 forces single-column tiles.
	rng := rand.New(rand.NewSource(10))
	x := tensor.RandomDense(rng, 2, 300, 0.2)
	w := tensor.RandomDense(rng, 300, 3, 0.2)
	got := GEMMViaSRAM(x, w)
	want := tensor.GEMM(x, w)
	if !got.Equal(want) {
		t.Error("wide-k GEMM mapping diverges")
	}
}

func TestSpMMViaReRAMCloseToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomCSR(rng, 20, 30, 90)
	b := tensor.RandomDense(rng, 30, 8, 0.5)
	got := SpMMViaReRAM(a, b)
	want := tensor.SpMM(a, b)
	// The crossbar accumulates products at full precision and rounds
	// once; the scalar reference rounds per product. Tolerance is the
	// worst-case accumulated rounding gap (half a ULP per product).
	for r := 0; r < got.Rows; r++ {
		maxGap := float64(a.RowNNZ(r))/2 + 1
		for c := 0; c < got.Cols; c++ {
			gap := math.Abs(float64(got.At(r, c)) - float64(want.At(r, c)))
			if gap > maxGap {
				t.Fatalf("(%d,%d): crossbar %d vs reference %d, gap %v > %v",
					r, c, got.At(r, c), want.At(r, c), gap, maxGap)
			}
		}
	}
}

func TestSpMMViaReRAMEmptyRows(t *testing.T) {
	a := tensor.FromCOO(3, 3, []tensor.Coord{{Row: 1, Col: 1, Val: fixed.FromInt(1)}})
	b := tensor.NewDense(3, 2)
	b.Set(1, 0, fixed.FromInt(5))
	got := SpMMViaReRAM(a, b)
	if got.At(1, 0) != fixed.FromInt(5) || got.At(0, 0) != 0 || got.At(2, 1) != 0 {
		t.Error("empty-row handling wrong")
	}
}

func TestEstimateString(t *testing.T) {
	est := Vadd(mem.SRAMConfig, 100, 1)
	if est.String() == "" || est.Target != isa.SRAM {
		t.Error("estimate render wrong")
	}
}
