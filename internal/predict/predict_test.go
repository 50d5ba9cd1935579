package predict

import (
	"math"
	"math/rand"
	"testing"

	"mlimp/internal/graph"
	"mlimp/internal/isa"
	"mlimp/internal/tensor"
)

// sampleSubgraphs draws n subgraph adjacencies from the ogbl-collab
// stand-in mother graph.
func sampleSubgraphs(t testing.TB, seed int64, n int) []*tensor.CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d, ok := graph.DatasetByName("ogbl-collab")
	if !ok {
		t.Fatal("dataset missing")
	}
	g := d.Generate(rng)
	s := graph.NewSampler(rng, g, 2, 0)
	out := make([]*tensor.CSR, n)
	for i := range out {
		out[i] = s.Sample(rng.Intn(g.N)).Adj
	}
	return out
}

func TestOracleMatchesKernelModel(t *testing.T) {
	adjs := sampleSubgraphs(t, 1, 3)
	o := Oracle{}
	for _, adj := range adjs {
		for _, tgt := range isa.Targets {
			if c := o.UnitCycles(adj, 128, tgt); c <= 0 {
				t.Errorf("%s: oracle cycles = %d", tgt, c)
			}
		}
		// More work, more cycles: oracle is monotone in nnz.
	}
}

func TestMLPPredictorAccuracy(t *testing.T) {
	// Section III-E reports R^2 of 0.995 and RMSE of 22% of the mean
	// for ogbl-citation2 on SRAM. On the collab stand-in we require the
	// same character: R^2 >= 0.95 and relative RMSE <= 0.35.
	train := sampleSubgraphs(t, 2, 128)
	test := sampleSubgraphs(t, 3, 32)
	rng := rand.New(rand.NewSource(4))
	cfg := DefaultTrainConfig()
	cfg.Epochs = 600
	p := Train(rng, train, 128, cfg)
	for _, tgt := range isa.Targets {
		acc := Evaluate(p, test, 128, tgt)
		if acc.R2 < 0.9 {
			t.Errorf("%s: R2 = %.3f, want >= 0.9", tgt, acc.R2)
		}
		if acc.RMSEFrac > 0.4 {
			t.Errorf("%s: relative RMSE = %.3f, want <= 0.4", tgt, acc.RMSEFrac)
		}
	}
}

func TestHwRegressorLearns(t *testing.T) {
	train := sampleSubgraphs(t, 5, 96)
	test := sampleSubgraphs(t, 6, 24)
	rng := rand.New(rand.NewSource(7))
	p := Train(rng, train, 128, DefaultTrainConfig())
	var obs, pred []float64
	for _, adj := range test {
		obs = append(obs, float64(adj.NonZeroPRows(PRowWidth)))
		pred = append(pred, p.PredictHw(adj))
	}
	// Relative error of the H_w regressor should be modest.
	var rel float64
	for i := range obs {
		rel += math.Abs(pred[i]-obs[i]) / (obs[i] + 1)
	}
	rel /= float64(len(obs))
	if rel > 0.25 {
		t.Errorf("mean relative H_w error = %.3f", rel)
	}
}

func TestTrainPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Train(rand.New(rand.NewSource(1)), nil, 128, DefaultTrainConfig())
}

func TestNoisyPredictorPerturbs(t *testing.T) {
	adjs := sampleSubgraphs(t, 8, 4)
	base := Oracle{}
	noisy := &NoisyPredictor{Base: base, Sigma: 0.5, Rng: rand.New(rand.NewSource(9))}
	diff := false
	for _, adj := range adjs {
		b := base.UnitCycles(adj, 128, isa.SRAM)
		n := noisy.UnitCycles(adj, 128, isa.SRAM)
		if n != b {
			diff = true
		}
		if n <= 0 {
			t.Error("noisy prediction must stay positive")
		}
	}
	if !diff {
		t.Error("sigma=0.5 noise changed nothing")
	}
	// Sigma 0 is the identity.
	quiet := &NoisyPredictor{Base: base, Sigma: 0, Rng: rand.New(rand.NewSource(9))}
	for _, adj := range adjs {
		if quiet.UnitCycles(adj, 128, isa.SRAM) != base.UnitCycles(adj, 128, isa.SRAM) {
			t.Error("sigma=0 must be exact")
		}
	}
}

func TestMetricAndNaiveClassifier(t *testing.T) {
	train := sampleSubgraphs(t, 10, 64)
	test := sampleSubgraphs(t, 11, 32)
	n, trainAcc := FitNaive(train, 128)
	if trainAcc < 0.5 {
		t.Errorf("training accuracy = %.2f", trainAcc)
	}
	acc := NaiveAccuracy(n, test, 128)
	// Figure 10: the metric is correlated ("can be used to roughly
	// classify jobs") but imperfect ("a lot of borderline jobs that are
	// misclassified").
	if acc < 0.55 {
		t.Errorf("naive test accuracy = %.2f, should beat chance", acc)
	}
	if math.IsNaN(NaiveAccuracy(n, nil, 128)) == false {
		t.Error("empty test set should be NaN")
	}
}

func TestMetricDegenerate(t *testing.T) {
	empty := tensor.NewCSR(4, 4)
	if Metric(empty) != 0 {
		t.Error("empty adjacency metric should be 0")
	}
}

func TestMLPBeatsNaiveOnPreference(t *testing.T) {
	// The MLP must classify the SRAM-vs-ReRAM preference at least as
	// well as the single-metric threshold (the reason Section III-E
	// adopts it).
	train := sampleSubgraphs(t, 12, 96)
	test := sampleSubgraphs(t, 13, 48)
	rng := rand.New(rand.NewSource(14))
	p := Train(rng, train, 128, DefaultTrainConfig())
	naive, _ := FitNaive(train, 128)
	naiveAcc := NaiveAccuracy(naive, test, 128)
	correct := 0
	for _, adj := range test {
		tS := float64(p.UnitCycles(adj, 128, isa.SRAM)) / 2500
		tR := float64(p.UnitCycles(adj, 128, isa.ReRAM)) / 20
		if (tR < tS) == preferenceReRAM(adj, 128) {
			correct++
		}
	}
	mlpAcc := float64(correct) / float64(len(test))
	if mlpAcc+0.05 < naiveAcc {
		t.Errorf("MLP accuracy %.2f well below naive %.2f", mlpAcc, naiveAcc)
	}
}

// TestRefitAllocatesNothing pins that a refit of a predictor that has
// already refitted on a window this size allocates nothing.
func TestRefitAllocatesNothing(t *testing.T) {
	subs := sampleSubgraphs(t, 51, 64)
	rng := rand.New(rand.NewSource(54))
	p := Train(rng, subs[:32], 128, TrainConfig{Epochs: 5, LR: 2e-3})
	obs := driftedObservations(p, rng, subs[32:], 128, 256)
	p.Refit(rng, obs, 1, 1e-3)
	if a := testing.AllocsPerRun(5, func() { p.Refit(rng, obs, 1, 1e-3) }); a != 0 {
		t.Errorf("warmed-up Refit allocates %v times, want 0", a)
	}
}

// TestUnitCyclesAllocatesNothing pins that a trained predictor's
// inference — the H_w regressor feeding a cycles regressor — and
// building an observation allocate nothing.
func TestUnitCyclesAllocatesNothing(t *testing.T) {
	subs := sampleSubgraphs(t, 51, 40)
	rng := rand.New(rand.NewSource(55))
	p := Train(rng, subs[:32], 128, TrainConfig{Epochs: 5, LR: 2e-3})
	adj := subs[32]
	p.UnitCycles(adj, 128, isa.SRAM)
	if a := testing.AllocsPerRun(100, func() { p.UnitCycles(adj, 128, isa.SRAM) }); a != 0 {
		t.Errorf("warm UnitCycles allocates %v times, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { p.Observe(adj, 128, isa.ReRAM, 1000) }); a != 0 {
		t.Errorf("Observe allocates %v times, want 0", a)
	}
}
