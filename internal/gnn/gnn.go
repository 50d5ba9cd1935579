// Package gnn implements the GNN case study of Section IV: a
// Graph Convolutional Network whose per-layer aggregation (SpMM) and
// combination (GEMM) kernels over sampled subgraphs become MLIMP jobs.
// It provides both a functional reference inference path (fixed-point
// tensors end to end) and the job generator that feeds the scheduler.
package gnn

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"mlimp/internal/event"
	"mlimp/internal/fixed"
	"mlimp/internal/graph"
	"mlimp/internal/isa"
	"mlimp/internal/kernels"
	"mlimp/internal/predict"
	"mlimp/internal/sched"
	"mlimp/internal/tensor"
)

// LayerSpec is one GCN layer's shape.
type LayerSpec struct {
	In, Out int
}

// Model is a GCN: per layer, H' = ReLU(Â H W + b).
type Model struct {
	Layers  []LayerSpec
	Weights []*tensor.Dense // [layer] In x Out
	Biases  []*tensor.Dense // [layer] 1 x Out
	// Formats selects the Q format each layer computes at; nil (or a
	// short slice) defaults remaining layers to fixed.DefaultFormat.
	// Narrow layers run on proportionally fewer arrays and cycles (the
	// job generators scale their profiles by the width), at the price of
	// activations snapping to the coarser grid — the precision half of
	// the replication+precision co-design.
	Formats []fixed.Format
}

// LayerFormat returns the Q format layer l computes at.
func (m *Model) LayerFormat(l int) fixed.Format {
	if l < len(m.Formats) {
		return m.Formats[l]
	}
	return fixed.DefaultFormat
}

// LayerBits returns the operand width of layer l.
func (m *Model) LayerBits(l int) int { return m.LayerFormat(l).Bits }

// NewGCN builds a GCN with the paper's structure: three layers from
// inFeat through hidden (Table I: hidden = 256), randomly initialised
// 16-bit fixed-point weights.
func NewGCN(rng *rand.Rand, inFeat, hidden, layers int) *Model {
	if layers < 1 || inFeat < 1 || hidden < 1 {
		panic("gnn: bad model shape")
	}
	m := &Model{}
	in := inFeat
	for l := 0; l < layers; l++ {
		spec := LayerSpec{In: in, Out: hidden}
		m.Layers = append(m.Layers, spec)
		scale := 1.0 / float64(spec.In)
		m.Weights = append(m.Weights, tensor.RandomDense(rng, spec.In, spec.Out, scale*8))
		m.Biases = append(m.Biases, tensor.RandomDense(rng, 1, spec.Out, 0.05))
		in = hidden
	}
	return m
}

// Infer runs reference fixed-point inference on one subgraph: the
// functional ground truth for the in-memory execution. feats is the
// NumNodes x In input feature matrix.
func (m *Model) Infer(sg *graph.Subgraph, feats *tensor.Dense) *tensor.Dense {
	if feats.Rows != sg.NumNodes() || feats.Cols != m.Layers[0].In {
		panic(fmt.Sprintf("gnn: feature shape %dx%d does not match subgraph(%d)/model(%d)",
			feats.Rows, feats.Cols, sg.NumNodes(), m.Layers[0].In))
	}
	h := feats
	for l, spec := range m.Layers {
		f := m.LayerFormat(l)
		w := m.Weights[l]
		if f != fixed.DefaultFormat {
			// A reduced-precision layer sees its stationary weights on the
			// narrow grid too; accumulation stays wide (the devices
			// accumulate in full-width bit-serial registers), so only the
			// stored operands quantise.
			w = quantizeDense(w, f)
		}
		agg := tensor.SpMM(sg.Adj, h)    // aggregation
		comb := tensor.GEMM(agg, w)      // combination
		for r := 0; r < comb.Rows; r++ { // bias Vadd
			row := comb.Row(r)
			brow := m.Biases[l].Row(0)
			for c := range row {
				row[c] = fixed.Add(row[c], brow[c])
			}
		}
		if l < len(m.Layers)-1 {
			comb.ReLU()
		}
		if f != fixed.DefaultFormat {
			// Activations leave the layer through f-wide sense amps.
			for r := 0; r < comb.Rows; r++ {
				row := comb.Row(r)
				for c := range row {
					row[c] = f.Quantize(row[c])
				}
			}
		}
		h = comb
		_ = spec
	}
	return h
}

// quantizeDense returns a copy of d with every element snapped to the
// grid of format f (still stored in the default format).
func quantizeDense(d *tensor.Dense, f fixed.Format) *tensor.Dense {
	out := tensor.NewDense(d.Rows, d.Cols)
	for r := 0; r < d.Rows; r++ {
		src, dst := d.Row(r), out.Row(r)
		for c := range src {
			dst[c] = f.Quantize(src[c])
		}
	}
	return out
}

// Workload is a batched GNN inference task over one dataset stand-in.
type Workload struct {
	Dataset graph.Dataset
	Model   *Model
	Graph   *graph.Graph
	Batches [][]*graph.Subgraph
}

// BuildWorkload samples `batches` batches of `batchSize` query subgraphs
// from the dataset's synthetic mother graph (2-hop neighbourhoods; see
// DESIGN.md). Datasets flagged Concat merge each batch into one
// concatenated subgraph (Section IV).
func BuildWorkload(rng *rand.Rand, d graph.Dataset, m *Model, batches, batchSize int) *Workload {
	g := d.Generate(rng)
	s := graph.NewSampler(rng, g, 2, 0)
	w := &Workload{Dataset: d, Model: m, Graph: g}
	for b := 0; b < batches; b++ {
		queries := make([]int, batchSize)
		for i := range queries {
			queries[i] = rng.Intn(g.N)
		}
		batch := s.SampleBatch(queries)
		if d.Concat {
			batch = []*graph.Subgraph{s.Concat(batch)}
		}
		w.Batches = append(w.Batches, batch)
	}
	return w
}

// Subgraphs returns all subgraphs across batches.
func (w *Workload) Subgraphs() []*graph.Subgraph {
	var out []*graph.Subgraph
	for _, b := range w.Batches {
		out = append(out, b...)
	}
	return out
}

// HostDispatch is the allocation-independent host cost per job launch:
// scheduler bookkeeping, predictor inference, and firmware kick-off
// (the paper measures the pre-execution cost at under 2% of an SpMM
// kernel, Section V-B2).
const HostDispatch = event.Microsecond

// fitBeta fits the scale-free exponent of the true SpMM scaling curve
// for one subgraph on one target by log-log regression over a few
// replica counts — the paper's "empirically modeled" shape parameter
// (Section III-C3), fitted once per mother graph and memory rather than
// assumed.
func fitBeta(adj *tensor.CSR, f int, t isa.Target) float64 {
	cfg := mem(t)
	unit := kernels.SpMMUnit(cfg, adj, f, true)
	if unit.RepUnit < 1 || unit.Cycles <= 0 {
		return sched.DefaultBeta
	}
	var sx, sy, sxx, sxy float64
	n := 0
	for r := 1; r <= 16; r *= 2 {
		e := kernels.SpMM(cfg, adj, f, unit.RepUnit*r, true)
		x := math.Log(float64(r))
		y := math.Log(float64(e.Cycles)*float64(e.Iterations) + 1)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		n++
	}
	den := float64(n)*sxx - sx*sx
	if den == 0 {
		return sched.DefaultBeta
	}
	beta := -(float64(n)*sxy - sx*sy) / den
	switch {
	case beta < 0.1:
		return 0.1
	case beta > 1:
		return 1
	}
	return beta
}

// FitBetas fits the scale-model exponent once per (target, feature
// width) on a representative subgraph of a mother graph — the shared
// prelude of SpMMJobs, exported for serving front ends that build jobs
// one request at a time.
func FitBetas(sample *tensor.CSR, widths []int, sys *sched.System) map[isa.Target]map[int]float64 {
	betas := map[isa.Target]map[int]float64{}
	for _, t := range sys.Targets() {
		betas[t] = map[int]float64{}
		for _, f := range widths {
			if _, ok := betas[t][f]; !ok {
				betas[t][f] = fitBeta(sample, f, t)
			}
		}
	}
	return betas
}

// SpMMJob builds one aggregation job for subgraph adjacency adj at
// feature width f: estimates from the predictor (which may have been
// retrained online since the request was generated), ground truth from
// the kernel cost model. The per-request unit of the serving front end.
func SpMMJob(id int, name string, adj *tensor.CSR, f int, p predict.Predictor,
	sys *sched.System, betas map[isa.Target]map[int]float64) *sched.Job {
	return SpMMJobAt(id, name, adj, f, 0, fixed.DefaultFormat, p, sys, betas)
}

// SpMMJobAt is SpMMJob for GCN layer `layer` computing in format qf:
// the job carries the layer's stage tag (so replicas of the stage can
// take it) and its operand width (profiles and ground truth scale with
// the width; the energy model reads Bits).
func SpMMJobAt(id int, name string, adj *tensor.CSR, f, layer int, qf fixed.Format,
	p predict.Predictor, sys *sched.System, betas map[isa.Target]map[int]float64) *sched.Job {
	bits := qf.Bits
	var est sched.Estimates
	for _, t := range sys.Targets() {
		est.Set(t, spmmProfile(adj, f, t, p.UnitCycles(adj, f, t), betas[t][f]).ScaleToBits(bits))
	}
	j := &sched.Job{ID: id, Name: name, Kind: "spmm",
		Stage: spmmStage(layer), Bits: bits, Est: &est}
	j.TrueTime = (&spmmTruth{adj: adj, f: f, bits: bits}).time
	return j
}

// spmmStages are the stage tags of the first GCN layers' aggregation
// jobs, prebuilt so that building a job formats no string.
var spmmStages = [...]string{"spmm-l0", "spmm-l1", "spmm-l2", "spmm-l3"}

// spmmStage returns the stage tag of layer's aggregation jobs.
func spmmStage(layer int) string {
	if layer >= 0 && layer < len(spmmStages) {
		return spmmStages[layer]
	}
	return fmt.Sprintf("spmm-l%d", layer)
}

// spmmProfile builds a scheduler profile for one aggregation SpMM from a
// cycle source (predictor or oracle). beta comes from the per-mother-
// graph fit.
func spmmProfile(adj *tensor.CSR, f int, t isa.Target, unitCycles int64, beta float64) sched.Profile {
	repUnit, load, store := kernels.SpMMFootprint(mem(t), adj, f)
	return sched.Profile{
		UnitCycles: unitCycles,
		RepUnit:    repUnit,
		LoadBytes:  sched.EffectiveLoadBytes(t, load),
		StoreBytes: sched.EffectiveLoadBytes(t, store),
		Beta:       beta,
		Overhead:   HostDispatch,
		// Replication cannot exceed one replica per input row.
		MaxUseful: repUnit * adj.Rows,
	}
}

// scaleBits scales a cycle or byte count for bits-wide operands on the
// bit-serial devices (linear in width, ceil so nothing rounds to zero).
func scaleBits(v int64, bits int) int64 {
	if bits <= 0 || bits >= 16 || v <= 0 {
		return v
	}
	return (v*int64(bits) + 15) / 16
}

// spmmTruth is the simulator's ground truth for one SpMM job at a given
// operand width. The kernel-model pass behind it is O(rows) and pure in
// (adj, f, target, arrays), and a job is mostly re-timed at the target
// and allocation it was last timed at, so the DDR-independent terms of
// the last pass are memoised. The entry is immutable behind an atomic
// pointer, so a job estimated on one shard and run on another reads a
// whole entry or a fresh one. The DDR stream terms are computed per call
// on the System passed in.
type spmmTruth struct {
	adj     *tensor.CSR
	f, bits int
	last    atomic.Pointer[spmmTruthEntry]
}

type spmmTruthEntry struct {
	t                     isa.Target
	arrays                int
	compute               event.Time // host dispatch plus in-memory cycles
	loadBytes, storeBytes int64      // DDR-equivalent traffic
}

func (s *spmmTruth) time(sys *sched.System, t isa.Target, arrays int) event.Time {
	e := s.last.Load()
	if e == nil || e.t != t || e.arrays != arrays {
		cfg := mem(t)
		est := kernels.SpMM(cfg, s.adj, s.f, arrays, true)
		e = &spmmTruthEntry{t: t, arrays: arrays,
			compute:    HostDispatch + cfg.Clock().Cycles(scaleBits(est.Cycles*int64(est.Iterations), s.bits)),
			loadBytes:  sched.EffectiveLoadBytes(t, scaleBits(est.LoadBytes, s.bits)),
			storeBytes: sched.EffectiveLoadBytes(t, scaleBits(est.StoreBytes, s.bits)),
		}
		s.last.Store(e)
	}
	return e.compute + sys.DDR.StreamTime(e.loadBytes) + sys.DDR.StreamTime(e.storeBytes)
}

// SpMMJobs generates one aggregation job per subgraph per GCN layer,
// with estimates from the given predictor and ground truth from the
// kernel cost model — the job stream of the Figure 15 scheduler study.
func (w *Workload) SpMMJobs(p predict.Predictor, sys *sched.System) []*sched.Job {
	var jobs []*sched.Job
	// Fit the scale-model exponent once per (target, layer-width) on a
	// representative subgraph of this mother graph.
	widths := make([]int, 0, len(w.Model.Layers))
	for _, spec := range w.Model.Layers {
		widths = append(widths, spec.In)
	}
	betas := FitBetas(w.Subgraphs()[0].Adj, widths, sys)
	id := 0
	for _, sg := range w.Subgraphs() {
		adj := sg.Adj
		for l, spec := range w.Model.Layers {
			f := spec.In
			bits := w.Model.LayerBits(l)
			var est sched.Estimates
			for _, t := range sys.Targets() {
				est.Set(t, spmmProfile(adj, f, t, p.UnitCycles(adj, f, t), betas[t][f]).ScaleToBits(bits))
			}
			j := &sched.Job{
				ID:    id,
				Name:  fmt.Sprintf("spmm-q%d-l%d", sg.Query, l),
				Kind:  "spmm",
				Stage: spmmStage(l),
				Bits:  bits,
				Est:   &est,
			}
			j.TrueTime = (&spmmTruth{adj: adj, f: f, bits: bits}).time
			jobs = append(jobs, j)
			id++
		}
	}
	return jobs
}

// AllJobs generates the full kernel job stream — SpMM, GEMM, and Vadd
// per subgraph per layer. GEMM and Vadd costs are deterministic static
// analysis (Section III-E), so their estimates are exact.
func (w *Workload) AllJobs(p predict.Predictor, sys *sched.System) []*sched.Job {
	jobs := w.SpMMJobs(p, sys)
	id := len(jobs)
	for _, sg := range w.Subgraphs() {
		n := sg.NumNodes()
		for l, spec := range w.Model.Layers {
			bits := w.Model.LayerBits(l)
			jobs = append(jobs, gemmJob(sys, &id, n, l, spec, bits))
			jobs = append(jobs, vaddJob(sys, &id, n*spec.Out, bits))
		}
	}
	return jobs
}

func gemmJob(sys *sched.System, id *int, rows, layer int, spec LayerSpec, bits int) *sched.Job {
	var est sched.Estimates
	for _, t := range sys.Targets() {
		cfg := mem(t)
		ru := clampArrays(sys, t, kernels.GEMM(cfg, rows, spec.In, spec.Out, 1).RepUnit)
		e := kernels.GEMM(cfg, rows, spec.In, spec.Out, ru)
		est.Set(t, sched.Profile{
			UnitCycles: e.Cycles, RepUnit: ru,
			LoadBytes:    sched.EffectiveLoadBytes(t, e.LoadBytes),
			StoreBytes:   sched.EffectiveLoadBytes(t, e.StoreBytes),
			ProgramBytes: e.ProgramBytes, Beta: sched.DefaultBeta,
			Overhead: HostDispatch,
		}.ScaleToBits(bits))
	}
	j := &sched.Job{ID: *id, Name: fmt.Sprintf("gemm-%dx%dx%d", rows, spec.In, spec.Out),
		Kind: "gemm", Stage: fmt.Sprintf("gemm-l%d", layer), Bits: bits, Est: &est}
	j.TrueTime = func(sys *sched.System, t isa.Target, arrays int) event.Time {
		cfg := mem(t)
		e := kernels.GEMM(cfg, rows, spec.In, spec.Out, arrays)
		tt := HostDispatch + cfg.Clock().Cycles(scaleBits(e.Cycles, bits)) +
			sys.DDR.StreamTime(sched.EffectiveLoadBytes(t, scaleBits(e.LoadBytes, bits))) +
			sys.DDR.StreamTime(sched.EffectiveLoadBytes(t, scaleBits(e.StoreBytes, bits)))
		if e.ProgramBytes > 0 {
			tt += sys.DDR.StreamTime(scaleBits(e.ProgramBytes, bits)) * 4
		}
		return tt
	}
	*id++
	return j
}

func vaddJob(sys *sched.System, id *int, n, bits int) *sched.Job {
	var est sched.Estimates
	for _, t := range sys.Targets() {
		cfg := mem(t)
		ru := clampArrays(sys, t, kernels.Vadd(cfg, n, 1).RepUnit)
		e := kernels.Vadd(cfg, n, ru)
		est.Set(t, sched.Profile{
			UnitCycles: e.Cycles, RepUnit: ru,
			LoadBytes:  sched.EffectiveLoadBytes(t, e.LoadBytes),
			StoreBytes: sched.EffectiveLoadBytes(t, e.StoreBytes),
			Beta:       sched.DefaultBeta,
			Overhead:   HostDispatch,
		}.ScaleToBits(bits))
	}
	j := &sched.Job{ID: *id, Name: fmt.Sprintf("vadd-%d", n), Kind: "vadd", Bits: bits, Est: &est}
	j.TrueTime = func(sys *sched.System, t isa.Target, arrays int) event.Time {
		cfg := mem(t)
		e := kernels.Vadd(cfg, n, arrays)
		return HostDispatch + cfg.Clock().Cycles(scaleBits(e.Cycles, bits)) +
			sys.DDR.StreamTime(sched.EffectiveLoadBytes(t, scaleBits(e.LoadBytes, bits))) +
			sys.DDR.StreamTime(sched.EffectiveLoadBytes(t, scaleBits(e.StoreBytes, bits)))
	}
	*id++
	return j
}
