package gnn

import (
	"fmt"
	"math/rand"
	"testing"

	"mlimp/internal/graph"
	"mlimp/internal/isa"
	"mlimp/internal/predict"
	"mlimp/internal/sched"
	"mlimp/internal/tensor"
)

func testWorkload(t *testing.T, seed int64, batches, batchSize int) *Workload {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d, ok := graph.DatasetByName("ogbl-collab")
	if !ok {
		t.Fatal("dataset missing")
	}
	m := NewGCN(rng, d.InputFeat, d.HiddenFeat, 3)
	return BuildWorkload(rng, d, m, batches, batchSize)
}

func TestNewGCNShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewGCN(rng, 128, 256, 3)
	if len(m.Layers) != 3 || len(m.Weights) != 3 || len(m.Biases) != 3 {
		t.Fatal("wrong layer count")
	}
	if m.Layers[0].In != 128 || m.Layers[0].Out != 256 {
		t.Error("layer 0 shape wrong")
	}
	if m.Layers[1].In != 256 || m.Layers[2].In != 256 {
		t.Error("hidden shapes wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewGCN(rng, 0, 256, 3)
}

func TestInferShapesAndActivation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := testWorkload(t, 3, 1, 4)
	sg := w.Batches[0][0]
	feats := tensor.RandomDense(rng, sg.NumNodes(), w.Model.Layers[0].In, 1)
	out := w.Model.Infer(sg, feats)
	if out.Rows != sg.NumNodes() || out.Cols != 256 {
		t.Fatalf("output shape = %dx%d", out.Rows, out.Cols)
	}
	// Hidden activations ReLU'd; the last layer is linear so negatives
	// may appear. Sanity: output must not be all zero.
	nonzero := false
	for _, v := range out.Data {
		if v != 0 {
			nonzero = true
			break
		}
	}
	if !nonzero {
		t.Error("inference produced all zeros")
	}
}

func TestInferPanicsOnShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w := testWorkload(t, 5, 1, 2)
	sg := w.Batches[0][0]
	feats := tensor.RandomDense(rng, sg.NumNodes(), 7, 1) // wrong feature dim
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	w.Model.Infer(sg, feats)
}

func TestBuildWorkloadConcat(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d, _ := graph.DatasetByName("ogbl-ddi")
	m := NewGCN(rng, d.InputFeat, d.HiddenFeat, 3)
	w := BuildWorkload(rng, d, m, 2, 8)
	for _, b := range w.Batches {
		if len(b) != 1 {
			t.Fatalf("concat dataset should merge batches, got %d subgraphs", len(b))
		}
	}
	if len(w.Subgraphs()) != 2 {
		t.Errorf("subgraph count = %d", len(w.Subgraphs()))
	}
}

func TestSpMMJobs(t *testing.T) {
	w := testWorkload(t, 7, 2, 4)
	sys := sched.NewSystem(isa.SRAM, isa.DRAM, isa.ReRAM)
	jobs := w.SpMMJobs(predict.Oracle{}, sys)
	if len(jobs) != 8*3 { // 8 subgraphs x 3 layers
		t.Fatalf("jobs = %d, want 24", len(jobs))
	}
	for _, j := range jobs {
		if j.Kind != "spmm" || j.TrueTime == nil {
			t.Fatalf("bad job %v", j)
		}
		for _, tgt := range sys.Targets() {
			p, _ := j.Est.Get(tgt)
			if p.UnitCycles <= 0 || p.RepUnit < 1 || p.LoadBytes <= 0 {
				t.Fatalf("bad profile for %s: %+v", tgt, p)
			}
			// Oracle estimates agree with the simulated truth at the
			// rep-unit allocation up to the shared load terms.
			est := sys.ModelTime(j, tgt, p.RepUnit)
			act := j.TrueTime(sys, tgt, p.RepUnit)
			ratio := float64(est) / float64(act)
			if ratio < 0.5 || ratio > 2 {
				t.Errorf("%s: est/actual = %.2f at rep unit", tgt, ratio)
			}
		}
	}
}

// TestSpMMStageTags checks the prebuilt stage tags and the formatted
// fallback past the table against the one format they stand for.
func TestSpMMStageTags(t *testing.T) {
	for l := -1; l <= len(spmmStages)+2; l++ {
		if got, want := spmmStage(l), fmt.Sprintf("spmm-l%d", l); got != want {
			t.Errorf("spmmStage(%d) = %q, want %q", l, got, want)
		}
	}
}

func TestAllJobsKinds(t *testing.T) {
	w := testWorkload(t, 8, 1, 4)
	sys := sched.NewSystem(isa.SRAM, isa.DRAM, isa.ReRAM)
	jobs := w.AllJobs(predict.Oracle{}, sys)
	kinds := map[string]int{}
	ids := map[int]bool{}
	for _, j := range jobs {
		kinds[j.Kind]++
		if ids[j.ID] {
			t.Fatalf("duplicate job id %d", j.ID)
		}
		ids[j.ID] = true
	}
	// 4 subgraphs x 3 layers of each kind.
	if kinds["spmm"] != 12 || kinds["gemm"] != 12 || kinds["vadd"] != 12 {
		t.Errorf("kind counts = %v", kinds)
	}
}

func TestScheduledGNNBatchCompletes(t *testing.T) {
	w := testWorkload(t, 9, 1, 8)
	sys := sched.NewSystem(isa.SRAM, isa.DRAM, isa.ReRAM)
	jobs := w.AllJobs(predict.Oracle{}, sys)
	res := sched.NewGlobal().Schedule(sys, jobs)
	if len(res.Assignments) != len(jobs) {
		t.Fatalf("scheduled %d of %d", len(res.Assignments), len(jobs))
	}
	if res.Makespan <= 0 {
		t.Fatal("bad makespan")
	}
}
