// Package predict implements MLIMP's performance predictor (Section
// III-E): two MLP regressors per mother graph — one learning H_w (the
// non-zero partial-row count a full input scan would otherwise be needed
// for) and one learning per-memory cycle counts from subgraph metadata —
// plus the naive nnz/H_w threshold classifier of Figure 10 and the
// oracle predictor used in the scheduler studies.
package predict

import (
	"math"
	"math/rand"
	"sort"

	"mlimp/internal/isa"
	"mlimp/internal/kernels"
	"mlimp/internal/mem"
	"mlimp/internal/mlp"
	"mlimp/internal/stats"
	"mlimp/internal/tensor"
)

// Predictor estimates the compute cycles of an SpMM job at unit
// allocation on each memory. Both the oracle and the MLP satisfy it, so
// schedulers are predictor-agnostic.
type Predictor interface {
	// UnitCycles returns t_cmpt(x, a_repunit) in target cycles for the
	// aggregation SpMM of subgraph adjacency adj with feature width f.
	UnitCycles(adj *tensor.CSR, f int, t isa.Target) int64
}

// Oracle returns the exact cycle counts from the kernel cost model — the
// "oracle predictor, which returns the accurate cycle counts of a job in
// each memory" of Section V-B3.
type Oracle struct{}

// UnitCycles implements Predictor exactly.
func (Oracle) UnitCycles(adj *tensor.CSR, f int, t isa.Target) int64 {
	est := kernels.SpMMUnit(mem.ConfigFor(t), adj, f, true)
	return est.Cycles * int64(est.Iterations)
}

// PRowWidth is the vertical strip width used for the H_w metric
// (the paper's H_128).
const PRowWidth = 128

// scale compresses log-space features into the tanh-friendly range.
const scale = 32.0

func lg(v float64) float64 { return math.Log2(v+1) / scale }

func hwFeatures(adj *tensor.CSR) [3]float64 {
	return [3]float64{lg(PRowWidth), lg(float64(adj.Rows)), lg(float64(adj.NNZ()))}
}

func cycleFeatures(adj *tensor.CSR, f int, hw float64) [4]float64 {
	return [4]float64{lg(float64(adj.Rows)), lg(float64(adj.NNZ())), lg(float64(f)), lg(hw)}
}

// MLP is the trained two-stage regressor. Train once per mother graph;
// the model is then reused for all queries ("the training cost is one
// time for the mother graph").
type MLP struct {
	hw     *mlp.Net
	cycles map[isa.Target]*mlp.Net
	f      int

	// Refit's training set for one target at a time, reused across
	// refits. Its rows are the x and y arrays of the observations Refit
	// was last given.
	refitX, refitY [][]float64
}

// TrainConfig controls regressor training.
type TrainConfig struct {
	Epochs int
	LR     float64
}

// DefaultTrainConfig mirrors the paper's light-weight training setup.
func DefaultTrainConfig() TrainConfig { return TrainConfig{Epochs: 400, LR: 2e-3} }

// Train fits the H_w regressor and the per-memory cycle regressors on
// training subgraphs sampled from the mother graph. f is the feature
// width of the GNN layer the predictor serves.
func Train(rng *rand.Rand, training []*tensor.CSR, f int, cfg TrainConfig) *MLP {
	if len(training) == 0 {
		panic("predict: empty training set")
	}
	p := &MLP{f: f, cycles: make(map[isa.Target]*mlp.Net)}

	// Stage 1: H_w from (w, dim, nnz).
	var hwX, hwY [][]float64
	for _, adj := range training {
		x := hwFeatures(adj)
		hwX = append(hwX, x[:])
		hwY = append(hwY, []float64{lg(float64(adj.NonZeroPRows(PRowWidth)))})
	}
	p.hw = mlp.New(rng, 3, 16, 8, 1)
	p.hw.Fit(rng, hwX, hwY, cfg.Epochs, cfg.LR)

	// Stage 2: per-memory cycles from metadata plus the *predicted* H_w
	// (the paper trains the second regressor on stage-1 outputs so
	// inference never needs the true H_w).
	oracle := Oracle{}
	for _, t := range isa.Targets {
		var xs, ys [][]float64
		for _, adj := range training {
			x := cycleFeatures(adj, f, p.predictHw(adj))
			xs = append(xs, x[:])
			ys = append(ys, []float64{lg(float64(oracle.UnitCycles(adj, f, t)))})
		}
		net := mlp.New(rng, 4, 16, 8, 1)
		net.Fit(rng, xs, ys, cfg.Epochs, cfg.LR)
		p.cycles[t] = net
	}
	return p
}

// Clone returns an independent deep copy of the trained predictor.
// Serving experiments train one MLP per mother graph (the expensive
// step) and clone it per run, so each run's online retraining starts
// from identical weights without re-training.
func (p *MLP) Clone() *MLP {
	c := &MLP{hw: p.hw.Clone(), f: p.f, cycles: make(map[isa.Target]*mlp.Net, len(p.cycles))}
	for t, net := range p.cycles {
		c.cycles[t] = net.Clone()
	}
	return c
}

// Observation is one ground-truth sample harvested from serving, kept
// ready to train on: the implied unit-allocation cycle count of a
// subgraph's aggregation SpMM on Target (inverted from an observed
// execution span by sched.ObservedUnitCycles) as the cycles regressor's
// input features and label. Build it with Observe.
type Observation struct {
	Target isa.Target
	x      [4]float64 // cycleFeatures
	y      [1]float64 // lg(cycles)
}

// Observe builds the training sample for an observed cycle count of
// subgraph adj's aggregation at feature width f on target t. Refit never
// trains the H_w regressor, so the features it predicts are fixed when
// the sample is observed.
func (p *MLP) Observe(adj *tensor.CSR, f int, t isa.Target, cycles int64) Observation {
	return Observation{Target: t, x: cycleFeatures(adj, f, p.predictHw(adj)),
		y: [1]float64{lg(float64(cycles))}}
}

// Refit fine-tunes the per-memory cycle regressors on observed serving
// latencies — the online retraining loop of the serving front end. The
// H_w regressor is left alone (its ground truth is structural, not
// latency-derived); each observation updates only its target's net.
// A few epochs at a low learning rate suffice: Refit corrects drift,
// it does not retrain from scratch. Refit allocates nothing once it has
// run on a window at least as large.
func (p *MLP) Refit(rng *rand.Rand, obs []Observation, epochs int, lr float64) {
	if len(obs) == 0 || epochs <= 0 {
		return
	}
	if cap(p.refitX) < len(obs) {
		p.refitX, p.refitY = make([][]float64, 0, len(obs)), make([][]float64, 0, len(obs))
	}
	for _, t := range isa.Targets { // canonical order: determinism
		net := p.cycles[t]
		if net == nil {
			continue
		}
		xs, ys := p.refitX[:0], p.refitY[:0]
		for i := range obs {
			if o := &obs[i]; o.Target == t {
				xs, ys = append(xs, o.x[:]), append(ys, o.y[:])
			}
		}
		if len(xs) > 0 {
			net.Fit(rng, xs, ys, epochs, lr)
		}
	}
}

func (p *MLP) predictHw(adj *tensor.CSR) float64 {
	x := hwFeatures(adj)
	out := p.hw.Scalar(x[:])
	return math.Exp2(out*scale) - 1
}

// PredictHw returns the regressed H_w estimate (exported for the Figure
// 10 study).
func (p *MLP) PredictHw(adj *tensor.CSR) float64 { return p.predictHw(adj) }

// UnitCycles implements Predictor with the trained regressors.
func (p *MLP) UnitCycles(adj *tensor.CSR, f int, t isa.Target) int64 {
	x := cycleFeatures(adj, f, p.predictHw(adj))
	out := p.cycles[t].Scalar(x[:])
	c := math.Exp2(out*scale) - 1
	if c < 1 {
		c = 1
	}
	return int64(c)
}

// Accuracy summarises a predictor's fit on a test set.
type Accuracy struct {
	R2       float64
	RMSE     float64 // in cycles
	RMSEFrac float64 // RMSE / mean observed cycles
}

// Evaluate measures prediction quality against the oracle on test
// subgraphs for one target.
func Evaluate(p Predictor, test []*tensor.CSR, f int, t isa.Target) Accuracy {
	oracle := Oracle{}
	var obs, pred []float64
	for _, adj := range test {
		obs = append(obs, float64(oracle.UnitCycles(adj, f, t)))
		pred = append(pred, float64(p.UnitCycles(adj, f, t)))
	}
	rmse := stats.RMSE(obs, pred)
	return Accuracy{
		R2:       stats.R2(obs, pred),
		RMSE:     rmse,
		RMSEFrac: rmse / stats.Mean(obs),
	}
}

// NoisyPredictor wraps a predictor with multiplicative log-normal noise —
// the stress test of Section V-B3 ("added Gaussian noise of sigma...").
type NoisyPredictor struct {
	Base  Predictor
	Sigma float64
	Rng   *rand.Rand
}

// UnitCycles perturbs the base prediction by exp(N(0, sigma)).
func (n *NoisyPredictor) UnitCycles(adj *tensor.CSR, f int, t isa.Target) int64 {
	base := float64(n.Base.UnitCycles(adj, f, t))
	v := base * math.Exp(n.Rng.NormFloat64()*n.Sigma)
	if v < 1 {
		v = 1
	}
	return int64(v)
}

// Naive is the Figure 10 baseline: classify the preferred memory from
// the single metric nnz(x)/H_w(x) against a threshold.
type Naive struct {
	Threshold float64
}

// Metric returns nnz(x)/H_w(x), the average job size per allocation.
func Metric(adj *tensor.CSR) float64 {
	h := adj.NonZeroPRows(PRowWidth)
	if h == 0 {
		return 0
	}
	return float64(adj.NNZ()) / float64(h)
}

// preferenceReRAM reports whether ReRAM beats SRAM in wall-clock time
// for the job (the t_SRAM/t_ReRAM > 1 side of Figure 10).
func preferenceReRAM(adj *tensor.CSR, f int) bool {
	o := Oracle{}
	tS := float64(o.UnitCycles(adj, f, isa.SRAM)) / mem.SRAMConfig.FreqMHz
	tR := float64(o.UnitCycles(adj, f, isa.ReRAM)) / mem.ReRAMConfig.FreqMHz
	return tR < tS
}

// FitNaive chooses the threshold maximising training accuracy and
// returns the classifier with its training accuracy.
func FitNaive(training []*tensor.CSR, f int) (Naive, float64) {
	type point struct {
		metric float64
		reram  bool
	}
	pts := make([]point, 0, len(training))
	for _, adj := range training {
		pts = append(pts, point{Metric(adj), preferenceReRAM(adj, f)})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].metric < pts[j].metric })
	best, bestAcc := Naive{}, -1.0
	// Candidate thresholds between consecutive metric values.
	for i := 0; i <= len(pts); i++ {
		var th float64
		switch {
		case i == 0:
			th = pts[0].metric - 1
		case i == len(pts):
			th = pts[len(pts)-1].metric + 1
		default:
			th = (pts[i-1].metric + pts[i].metric) / 2
		}
		correct := 0
		for _, p := range pts {
			if (p.metric > th) == p.reram {
				correct++
			}
		}
		if acc := float64(correct) / float64(len(pts)); acc > bestAcc {
			bestAcc = acc
			best = Naive{Threshold: th}
		}
	}
	return best, bestAcc
}

// PrefersReRAM classifies one job.
func (n Naive) PrefersReRAM(adj *tensor.CSR) bool { return Metric(adj) > n.Threshold }

// NaiveAccuracy measures the classifier on a test set against the true
// preference.
func NaiveAccuracy(n Naive, test []*tensor.CSR, f int) float64 {
	if len(test) == 0 {
		return math.NaN()
	}
	correct := 0
	for _, adj := range test {
		if n.PrefersReRAM(adj) == preferenceReRAM(adj, f) {
			correct++
		}
	}
	return float64(correct) / float64(len(test))
}
