package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"time"

	"mlimp/internal/cluster"
	"mlimp/internal/event"
	"mlimp/internal/fault"
	"mlimp/internal/gnn"
	"mlimp/internal/graph"
	"mlimp/internal/isa"
	"mlimp/internal/predict"
	"mlimp/internal/runtime"
	"mlimp/internal/sched"
	"mlimp/internal/serve"
	"mlimp/internal/tensor"
	appjobs "mlimp/internal/workload"
)

// workload is one fixed set of inputs the benchmark runs. build makes the
// inputs from a seed at a size (1 is the benchmark's own size; the smoke
// test runs about 1/50 of it through the same code).
type workload struct {
	name  string
	why   string
	load  string // how work arrives, in host and in simulated time
	build func(seed int64, size float64, ph *phases) inputs
}

// inputs are a workload's generated inputs. run simulates them once on
// fresh program state and may be called any number of times; tr is nil
// on untraced runs.
type inputs interface {
	run(tr *tracer) *outcome
}

// replayer is implemented by inputs sampled from a mother graph; replay
// names the graph and the query sequence the inputs sampled.
type replayer interface {
	replay() graphReplay
}

// referencer is implemented by inputs with simulated metrics too costly
// to compute on every repeat; reference adds them to the reference run's
// outcome, untimed.
type referencer interface {
	reference(o *outcome)
}

// outcome is what one simulated run produced.
type outcome struct {
	text   strings.Builder    // canonical simulated output; its hash is the digest
	sim    map[string]float64 // simulated end-to-end metrics
	layer  map[string]float64 // simulated per-layer metrics
	checks []check
	notes  []string
}

type check struct {
	name   string
	ok     bool
	detail string
}

func newOutcome() *outcome {
	return &outcome{sim: map[string]float64{}, layer: map[string]float64{}}
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

func (o *outcome) digest() string {
	sum := sha256.Sum256([]byte(o.text.String()))
	return hex.EncodeToString(sum[:8])
}

// phases records named steps of input construction in host time.
type phases struct {
	steps []step
}

type step struct {
	name       string
	start, end time.Time
}

func (p *phases) time(name string, fn func()) {
	t0 := time.Now()
	fn()
	p.steps = append(p.steps, step{name: name, start: t0, end: time.Now()})
}

// total sums the host time of the named steps.
func (p *phases) total(name string) time.Duration {
	var d time.Duration
	for _, s := range p.steps {
		if s.name == name {
			d += s.end.Sub(s.start)
		}
	}
	return d
}

// derive gives each workload and purpose its own seed, so the inputs are
// a pure function of -seed and no two streams share random numbers.
func derive(seed int64, workload, purpose string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%s", seed, workload, purpose)
	return int64(h.Sum64() >> 1)
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// scaled shrinks a count by size, keeping at least min.
func scaled(n int, size float64, min int) int {
	if v := int(math.Round(float64(n) * size)); v > min {
		return v
	}
	return min
}

// serveLoad describes both serving workloads' arrivals. The host side is
// a closed loop (one repeat after another); the simulated side is open.
const serveLoad = "open loop in simulated time: Poisson arrivals generated from the seed before the run; " +
	"arrivals are simulated events, so the generator never runs late; latency runs from the scheduled arrival"

var workloads = []workload{
	{
		name:  "gnn-serve",
		why:   "GNN requests over sampled subgraphs on a cut-down heterogeneous fleet: the only workload where sampling, predictor refit and admission estimates all work",
		load:  serveLoad,
		build: buildGNNServe,
	},
	{
		name:  "app-serve",
		why:   "Table II app requests on the full fleet at overload: same front end and fabric with graph and predict bypassed; admission estimates dominate",
		load:  serveLoad,
		build: buildAppServe,
	},
	{
		name:  "gnn-batch",
		why:   "the paper's offline path: GCN job streams scheduled batch by batch on one node; scheduler core only, no fabric, serve or parsim",
		load:  "closed loop: batches are scheduled back to back on one node; job latency runs from its batch's start",
		build: buildGNNBatch,
	},
	{
		name:  "fleet-chaos",
		why:   "64 nodes under 32 hubs with a frozen hub and a lossy edge: parsim windows, takeovers and re-dispatch; graph, predict and serve idle",
		load:  "open loop in simulated time: waves of 64 batches every 60 ms, submitted before the run; batch latency runs from the scheduled arrival",
		build: buildFleetChaos,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// graphReplay is a workload's sampling input: the mother graph's dataset
// and generation seed, and the query vertices in the order the workload
// sampled them.
type graphReplay struct {
	d       graph.Dataset
	seed    int64
	queries []int
}

// --- gnn-serve ---------------------------------------------------------

// servingDataset is the 1200-vertex scale-free stand-in of the serving
// experiment, with F = 64.
var servingDataset = graph.Dataset{Name: "serving", Vertices: 1200,
	InputFeat: 64, HiddenFeat: 64, ScaleDiv: 1, Attachment: 8}

const (
	gnnServeSLO    = 1500 * event.Microsecond
	gnnServeBudget = 200 * event.Microsecond
)

// gnnServeLadder is the Poisson rate ladder as mean gaps: 50k, 71k, 91k
// and 125k requests per second, each over its simulated horizon. The top
// rate feeds the headline metrics, so it runs longest; the lower rates
// only decide max_rate_rps.
var gnnServeLadder = []struct {
	name         string
	gap, horizon event.Time
}{
	{"r50k", 20 * event.Microsecond, 5 * event.Millisecond},
	{"r71k", 14 * event.Microsecond, 5 * event.Millisecond},
	{"r91k", 11 * event.Microsecond, 5 * event.Millisecond},
	{"r125k", 8 * event.Microsecond, 20 * event.Millisecond},
}

type gnnServe struct {
	src       *serve.GNNSource
	pred      *predict.MLP
	rungs     [][]*serve.Request
	graphSeed int64
	queries   []int
	refitSeed int64
}

func buildGNNServe(seed int64, size float64, ph *phases) inputs {
	const name = "gnn-serve"
	in := &gnnServe{graphSeed: derive(seed, name, "graph"), refitSeed: derive(seed, name, "refit")}
	// The predictor is trained once per mother graph, on its own sample of
	// the dataset, and cloned per run.
	rng := newRand(derive(seed, name, "predictor"))
	g := servingDataset.Generate(rng)
	s := graph.NewSampler(rng, g, 2, 0)
	training := make([]*tensor.CSR, 32)
	for i := range training {
		training[i] = s.Sample(rng.Intn(g.N)).Adj
	}
	ph.time("predict.train", func() {
		in.pred = predict.Train(rng, training, servingDataset.InputFeat,
			predict.TrainConfig{Epochs: scaled(150, size, 5), LR: 2e-3})
	})
	in.src = serve.NewGNNSource(newRand(in.graphSeed), servingDataset, servingDataset.InputFeat,
		in.pred, sched.NewSystem(isa.Targets...))
	for _, rung := range gnnServeLadder {
		arr := serve.Trace(newRand(derive(seed, name, "arrivals-"+rung.name)),
			serve.Poisson{MeanGap: rung.gap}, 0, event.Time(float64(rung.horizon)*size))
		// Requests draws exactly one query vertex per arrival from this rng,
		// so the replay can regenerate the sequence.
		qseed := derive(seed, name, "queries-"+rung.name)
		qrng := newRand(qseed)
		for range arr {
			in.queries = append(in.queries, qrng.Intn(servingDataset.SynthVertices()))
		}
		var reqs []*serve.Request
		ph.time("serve.requests", func() { reqs = in.src.Requests(newRand(qseed), arr, gnnServeSLO) })
		in.rungs = append(in.rungs, reqs)
	}
	return in
}

func (in *gnnServe) replay() graphReplay {
	return graphReplay{d: servingDataset, seed: in.graphSeed, queries: in.queries}
}

func (in *gnnServe) run(tr *tracer) *outcome {
	o := newOutcome()
	metFrac := make([]float64, len(in.rungs))
	rates := make([]float64, len(in.rungs))
	var top serveRun
	for k, reqs := range in.rungs {
		src := *in.src
		src.Sys = sched.NewSystem(isa.Targets...)
		src.Predictor = in.pred.Clone()
		fleet := clusterFleet(0.05)
		tr.wrapSchedulers(fleet)
		d := cluster.NewShardedDispatcher(tr.wrapPolicy(cluster.NewPredictedCost()),
			cluster.Admission{MaxRetries: 1}, cluster.ShardConfig{Workers: 1}, fleet...)
		run := runServe(d, serve.Config{
			Requests: reqs, Budget: gnnServeBudget, BatchMax: 4,
			PredictorAdmission: true, BuildJob: tr.wrapBuildJob(src.BuildJob),
			Predictor: src.Predictor, Mirror: src.Sys,
			RetrainEvery: 8, RetrainEpochs: 10, Seed: in.refitSeed,
		}, tr)
		rung := gnnServeLadder[k]
		fmt.Fprintf(&o.text, "%s %s\n", rung.name, run.String())
		o.check("conservation "+rung.name, run.s.Accounted() == run.s.Requests,
			"accounted %d, requests %d", run.s.Accounted(), run.s.Requests)
		rates[k] = float64(event.Second) / float64(rung.gap)
		metFrac[k] = run.s.SLO.MetFrac()
		o.layer["serve."+rung.name+".met_frac"] = metFrac[k]
		// The lower rungs have too few requests for a true p99; the tail rule
		// picks the highest percentile with ten requests beyond it.
		p := tailPercentile(len(run.lats))
		o.layer["serve."+rung.name+".lat_p99_ms"] = percentile(run.lats, p)
		o.notes = append(o.notes, fmt.Sprintf("serve.%s.lat_p99_ms is p%g of %d requests", rung.name, p, len(run.lats)))
		if k == len(in.rungs)-1 {
			top = run
		}
	}
	top.metrics(o, tr)
	o.sim["max_rate_rps"] = maxRate(rates, metFrac)
	o.layer["predict.retrains"] = float64(top.s.Retrains)
	o.layer["predict.drifts"] = float64(top.s.Drifts)
	o.layer["predict.abs_log_err"] = top.s.MeanAbsLogErr
	return o
}

// --- app-serve ---------------------------------------------------------

const (
	appServeSLO     = 10 * event.Millisecond
	appServeGap     = 100 * event.Microsecond // 10k requests per second
	appServeHorizon = 1000 * event.Millisecond
)

type appServe struct {
	reqs []*serve.Request
	src  *serve.AppSource
}

func buildAppServe(seed int64, size float64, ph *phases) inputs {
	const name = "app-serve"
	in := &appServe{src: serve.NewAppSource(sched.NewSystem(isa.Targets...))}
	arr := serve.Trace(newRand(derive(seed, name, "arrivals")), serve.Poisson{MeanGap: appServeGap},
		0, event.Time(float64(appServeHorizon)*size))
	ph.time("serve.requests", func() {
		in.reqs = in.src.Requests(newRand(derive(seed, name, "apps")), arr, appServeSLO)
	})
	return in
}

func (in *appServe) run(tr *tracer) *outcome {
	o := newOutcome()
	fleet := clusterFleet(1)
	tr.wrapSchedulers(fleet)
	d := cluster.NewShardedDispatcher(tr.wrapPolicy(cluster.NewPredictedCost()),
		cluster.Admission{MaxRetries: 2}, cluster.ShardConfig{Workers: 1}, fleet...)
	run := runServe(d, serve.Config{
		Requests: in.reqs, Budget: 500 * event.Microsecond, BatchMax: 4,
		PredictorAdmission: true, BuildJob: tr.wrapBuildJob(in.src.BuildJob),
	}, tr)
	fmt.Fprintf(&o.text, "%s\n", run.String())
	o.check("conservation", run.s.Accounted() == run.s.Requests,
		"accounted %d, requests %d", run.s.Accounted(), run.s.Requests)
	run.metrics(o, tr)
	return o
}

// --- shared serving code -----------------------------------------------

// clusterFleet is the bundled heterogeneous fleet of the cluster
// experiments (one full node, two partial layer mixes and a ReRAM-only
// straggler) with every layer's capacity multiplied by scale.
func clusterFleet(scale float64) []cluster.NodeConfig {
	return []cluster.NodeConfig{
		{Name: "full", Targets: isa.Targets, Scale: scale},
		{Name: "sram-dram", Targets: []isa.Target{isa.SRAM, isa.DRAM}, Scale: scale},
		{Name: "dram-reram", Targets: []isa.Target{isa.DRAM, isa.ReRAM}, Scale: scale},
		{Name: "reram", Targets: []isa.Target{isa.ReRAM}, Scale: scale},
	}
}

// serveRun is one front-end run with the per-request latencies the
// summary only digests.
type serveRun struct {
	s    serve.Summary
	d    *cluster.ShardedDispatcher
	lats []float64 // ms from scheduled arrival to completion, completed requests
	mem  memTally
}

// runServe drives one open-loop front end to completion. Arrivals are
// simulated events generated before the run, so the generator can never
// run late; latency is charged from the scheduled arrival.
func runServe(d *cluster.ShardedDispatcher, cfg serve.Config, tr *tracer) serveRun {
	run := serveRun{d: d}
	arrival := make(map[int]event.Time, len(cfg.Requests))
	for _, r := range cfg.Requests {
		arrival[r.ID] = r.Arrival
	}
	if tr != nil {
		d.RecordAssignments()
	}
	cfg.OnDone = func(info cluster.DoneInfo) {
		if info.Outcome != cluster.OutcomeCompleted {
			return
		}
		for _, j := range info.Batch.Jobs {
			run.lats = append(run.lats, (info.Result.Completed - arrival[j.ID]).Millis())
		}
		if tr != nil {
			run.mem.add(info.Result.Assignments)
		}
	}
	fe, err := serve.New(d, cfg)
	if err != nil {
		panic("bench: " + err.Error()) // the inputs are generated non-empty with a positive budget
	}
	run.s = fe.Run()
	return run
}

// String is the run's canonical simulated output: the serving summary
// plus every request latency at full precision.
func (r serveRun) String() string {
	var sb strings.Builder
	sb.WriteString(r.s.String())
	for _, l := range r.lats {
		fmt.Fprintf(&sb, " %g", l)
	}
	return sb.String()
}

// metrics records the end-to-end and layer metrics of a serving run.
func (r serveRun) metrics(o *outcome, tr *tracer) {
	s := r.s
	o.sim["goodput_per_s"] = s.SLO.Goodput
	o.sim["makespan_ms"] = s.Cluster.Makespan.Millis()
	latencyMetrics(o, r.lats, "requests")
	o.sim["slo_miss_frac"] = sloMissFrac(s.SLO.Met, s.Requests)
	o.sim["fail_frac"] = share(s.ShedAdmission+s.ShedOverload+s.DeadLettered, s.Requests)
	o.layer["serve.sealed"] = float64(s.Sealed)
	o.layer["serve.batch_size_mean"] = share(s.Completed+s.ShedOverload+s.DeadLettered, s.Sealed)
	o.layer["serve.shed_admission"] = float64(s.ShedAdmission)
	o.layer["serve.shed_overload"] = float64(s.ShedOverload)
	o.layer["serve.dead_letter"] = float64(s.DeadLettered)
	fleetMetrics(o, s.Cluster, r.d)
	if tr != nil {
		r.mem.metrics(o, fleetCapacity(r.d), s.Cluster.Makespan)
	}
}

// fleetMetrics records the cluster, sched and parsim layer metrics of a
// drained fleet.
func fleetMetrics(o *outcome, s cluster.Summary, d *cluster.ShardedDispatcher) {
	o.layer["cluster.queue_p50_ms"] = s.P50QueMs
	o.layer["cluster.queue_p99_ms"] = s.P99QueMs
	var sum, lo, hi float64
	for i, n := range s.Nodes {
		if i == 0 || n.Utilization < lo {
			lo = n.Utilization
		}
		hi = math.Max(hi, n.Utilization)
		sum += n.Utilization
	}
	o.layer["cluster.node_util_min"] = lo
	o.layer["cluster.node_util_mean"] = sum / float64(max(len(s.Nodes), 1))
	o.layer["cluster.node_util_max"] = hi
	o.layer["cluster.retries"] = float64(s.Retries)
	o.layer["cluster.redispatches"] = float64(s.Redispatches)
	o.layer["cluster.timeouts"] = float64(s.Timeouts)
	o.layer["cluster.dead_lettered"] = float64(s.DeadLettered)
	o.layer["cluster.takeovers"] = float64(s.Takeovers)
	o.layer["cluster.rehomed"] = float64(s.Rehomed)
	var cs sched.CacheStats
	for _, n := range d.Nodes() {
		c := n.Sys.CacheStats()
		cs.ModelHits += c.ModelHits
		cs.ModelMisses += c.ModelMisses
		cs.KneeHits += c.KneeHits
		cs.KneeMisses += c.KneeMisses
		cs.Clears += c.Clears
	}
	cacheMetrics(o, cs)
	ws := d.WindowStats()
	o.layer["parsim.windows"] = float64(ws.Windows)
	o.layer["parsim.avg_active"] = ws.AvgActive()
	o.layer["parsim.max_active"] = float64(ws.MaxActive)
	o.layer["parsim.dropped"] = float64(ws.Dropped)
	o.layer["parsim.delayed"] = float64(ws.Delayed)
}

func cacheMetrics(o *outcome, cs sched.CacheStats) {
	o.layer["sched.model_hit_ratio"] = share64(cs.ModelHits, cs.ModelHits+cs.ModelMisses)
	o.layer["sched.knee_hit_ratio"] = share64(cs.KneeHits, cs.KneeHits+cs.KneeMisses)
	o.layer["sched.memo_clears"] = float64(cs.Clears)
}

// fleetCapacity sums each layer's array capacity over the fleet's nodes.
func fleetCapacity(d *cluster.ShardedDispatcher) [isa.NumTargets]int {
	var c [isa.NumTargets]int
	for _, n := range d.Nodes() {
		for t, l := range n.Sys.Layers {
			c[t] += l.Capacity()
		}
	}
	return c
}

// latencyMetrics records the median and tail of a latency sample. The
// tail is p99 with at least 1000 samples, otherwise the highest whole
// percentile with at least ten samples beyond it; a note names it.
func latencyMetrics(o *outcome, lats []float64, what string) {
	p := tailPercentile(len(lats))
	o.sim["lat_p50_ms"] = percentile(lats, 50)
	o.sim["lat_p99_ms"] = percentile(lats, p)
	o.notes = append(o.notes, fmt.Sprintf("latency over %d completed %s; lat_p99_ms is p%g", len(lats), what, p))
}

// memTally accumulates placements per memory layer.
type memTally struct {
	jobs      [isa.NumTargets]int
	busy      [isa.NumTargets]event.Time // sum of job spans
	arrayTime [isa.NumTargets]float64    // sum of arrays x span
}

func (m *memTally) add(as []sched.Assignment) {
	for _, a := range as {
		span := a.End - a.Start
		m.jobs[a.Target]++
		m.busy[a.Target] += span
		m.arrayTime[a.Target] += float64(a.Arrays) * float64(span)
	}
}

// metrics records job share, busy time and array utilisation per layer;
// utilisation is array-time over capacity x makespan.
func (m *memTally) metrics(o *outcome, capacity [isa.NumTargets]int, makespan event.Time) {
	total := 0
	for _, n := range m.jobs {
		total += n
	}
	o.layer["sched.jobs_placed"] = float64(total)
	for _, t := range isa.Targets {
		p := "mem." + strings.ToLower(t.String()) + "."
		o.layer[p+"job_share"] = share(m.jobs[t], total)
		o.layer[p+"busy_ms"] = m.busy[t].Millis()
		if den := float64(capacity[t]) * float64(makespan); den > 0 {
			o.layer[p+"array_util"] = m.arrayTime[t] / den
		} else {
			o.layer[p+"array_util"] = 0
		}
	}
}

// --- gnn-batch ---------------------------------------------------------

const (
	gnnBatchCount = 64
	gnnBatchSize  = 16
)

type gnnBatch struct {
	batches   [][]*sched.Job
	graphSeed int64
	queries   []int
	d         graph.Dataset
}

func buildGNNBatch(seed int64, size float64, ph *phases) inputs {
	const name = "gnn-batch"
	d, _ := graph.DatasetByName("ogbl-collab")
	in := &gnnBatch{graphSeed: derive(seed, name, "graph"), d: d}
	grng := newRand(in.graphSeed)
	g := d.Generate(grng)
	s := graph.NewSampler(grng, g, 2, 0)
	m := gnn.NewGCN(newRand(derive(seed, name, "model")), d.InputFeat, d.HiddenFeat, 3)
	var pred *predict.MLP
	trng := newRand(derive(seed, name, "predictor"))
	training := make([]*tensor.CSR, 64)
	for i := range training {
		training[i] = s.Sample(trng.Intn(g.N)).Adj
	}
	ph.time("predict.train", func() {
		pred = predict.Train(trng, training, d.InputFeat,
			predict.TrainConfig{Epochs: scaled(200, size, 5), LR: 2e-3})
	})
	qrng := newRand(derive(seed, name, "queries"))
	sys := sched.NewSystem(isa.Targets...)
	for b := 0; b < scaled(gnnBatchCount, size, 1); b++ {
		queries := make([]int, gnnBatchSize)
		for i := range queries {
			queries[i] = qrng.Intn(g.N)
		}
		in.queries = append(in.queries, queries...)
		w := &gnn.Workload{Dataset: d, Model: m, Graph: g, Batches: [][]*graph.Subgraph{s.SampleBatch(queries)}}
		in.batches = append(in.batches, w.AllJobs(pred, sys))
	}
	return in
}

func (in *gnnBatch) replay() graphReplay {
	return graphReplay{d: in.d, seed: in.graphSeed, queries: in.queries}
}

func (in *gnnBatch) run(tr *tracer) *outcome {
	o := newOutcome()
	sys := sched.NewSystem(isa.Targets...)
	sc := tr.wrapScheduler("node", sched.NewGlobal())
	var makespan event.Time
	var lats []float64
	var mem memTally
	full := 0 // batches with every job placed
	for b, jobs := range in.batches {
		res := sc.Schedule(sys, jobs)
		placed := map[int]bool{}
		for _, a := range res.Assignments {
			placed[a.Job.ID] = true
			lats = append(lats, a.End.Millis())
			fmt.Fprintf(&o.text, "%d:%d:%s:%d:%d:%d ", b, a.Job.ID, a.Target, a.Arrays, a.Start, a.End)
		}
		if len(placed) == len(jobs) {
			full++
		}
		fmt.Fprintf(&o.text, "makespan %d\n", res.Makespan)
		makespan += res.Makespan
		mem.add(res.Assignments)
	}
	o.check("placement", full == len(in.batches), "%d of %d batches had every job placed", full, len(in.batches))
	o.sim["makespan_ms"] = makespan.Millis()
	o.sim["goodput_per_s"] = perSecond(len(lats), makespan)
	latencyMetrics(o, lats, "jobs (from batch start)")
	cacheMetrics(o, sys.CacheStats())
	var capacity [isa.NumTargets]int
	for t, l := range sys.Layers {
		capacity[t] = l.Capacity()
	}
	mem.metrics(o, capacity, makespan)
	return o
}

// reference adds the mean oracle fraction (paper Fig. 16). The oracle
// costs nine schedules per batch, so it is computed once per run rather
// than on every repeat. Schedules are pure functions of the batch and a
// fresh system, so rescheduling here matches the repeats.
func (in *gnnBatch) reference(o *outcome) {
	var frac float64
	for _, jobs := range in.batches {
		res := sched.NewGlobal().Schedule(sched.NewSystem(isa.Targets...), jobs)
		frac += sched.OracleFraction(sched.NewSystem(isa.Targets...), jobs, res)
	}
	o.sim["oracle_frac"] = frac / float64(len(in.batches))
}

// --- fleet-chaos -------------------------------------------------------

const (
	chaosNodes    = 64
	chaosHubs     = 32
	chaosWaves    = 16
	chaosJobs     = 6
	chaosTenants  = 4
	chaosWaveGap  = 60 * event.Millisecond
	chaosDeadline = 400 * event.Millisecond
)

type chaosBatch struct {
	id   int
	at   event.Time
	jobs []*sched.Job
}

type fleetChaos struct {
	batches []chaosBatch
	plan    *fault.Plan
}

func buildFleetChaos(seed int64, size float64, ph *phases) inputs {
	const name = "fleet-chaos"
	waves := scaled(chaosWaves, size, 1)
	// The fault windows stretch with the run, so a smaller run still sees
	// them and its simulated time ends with its arrivals.
	at := func(ms int) event.Time {
		return event.Time(ms) * event.Millisecond * event.Time(waves) / chaosWaves
	}
	in := &fleetChaos{plan: &fault.Plan{
		Seed:       derive(seed, name, "faults"),
		HubCrashes: []fault.HubCrash{{Region: 3, At: at(300), Recover: at(900)}},
		EdgeFaults: []fault.EdgeFault{{From: "hub10", To: "node21", At: at(200), Until: at(1500), DropProb: 0.3}},
	}}
	rng := newRand(derive(seed, name, "jobs"))
	id := 0
	for w := 0; w < waves; w++ {
		for i := 0; i < chaosNodes; i++ {
			jobs := appjobs.AssignTenants(appjobs.RandomJobs(rng, chaosJobs, id*chaosJobs), chaosTenants)
			in.batches = append(in.batches, chaosBatch{id: id, at: event.Time(w) * chaosWaveGap, jobs: jobs})
			id++
		}
	}
	return in
}

func (in *fleetChaos) run(tr *tracer) *outcome {
	o := newOutcome()
	cfgs := make([]cluster.NodeConfig, chaosNodes)
	for i := range cfgs {
		cfgs[i] = cluster.NodeConfig{Name: fmt.Sprintf("node%d", i), Targets: isa.Targets,
			Packing: sched.PackWeightedFair}
	}
	tr.wrapSchedulers(cfgs)
	d := cluster.NewShardedDispatcher(tr.wrapPolicy(cluster.NewLeastOutstanding()),
		cluster.Admission{MaxRetries: 6}, cluster.ShardConfig{Workers: 2, Hubs: chaosHubs}, cfgs...)
	if err := d.EnableFaults(cluster.FaultConfig{Plan: in.plan, Deadline: chaosDeadline}); err != nil {
		panic("bench: " + err.Error()) // the plan is fixed and names shards of this topology
	}
	arrival := make(map[int]event.Time, len(in.batches))
	var lats []float64
	met := 0
	var mem memTally
	if tr != nil {
		d.RecordAssignments()
	}
	d.OnDone(func(info cluster.DoneInfo) {
		if info.Outcome != cluster.OutcomeCompleted {
			return
		}
		lat := info.Result.Completed - arrival[info.Batch.ID]
		lats = append(lats, lat.Millis())
		if lat <= chaosDeadline {
			met++
		}
		if tr != nil {
			mem.add(info.Result.Assignments)
		}
	})
	for _, b := range in.batches {
		arrival[b.id] = b.at
		if err := d.Submit(&runtime.Batch{ID: b.id, Arrival: b.at, Jobs: b.jobs}); err != nil {
			panic("bench: " + err.Error()) // IDs are unique and batches non-empty
		}
	}
	s := d.Run()
	ws := d.WindowStats()
	fmt.Fprintf(&o.text, "%s\n%s\n", s.String(), ws.String())
	for _, l := range lats {
		fmt.Fprintf(&o.text, " %g", l)
	}
	o.check("conservation", s.Accounted() == s.Submitted,
		"accounted %d, submitted %d", s.Accounted(), s.Submitted)
	o.sim["makespan_ms"] = s.Makespan.Millis()
	o.sim["goodput_per_s"] = perSecond(met, s.Makespan)
	latencyMetrics(o, lats, "batches")
	o.sim["fail_frac"] = share(s.Shed+s.DeadLettered, s.Submitted)
	fleetMetrics(o, s, d)
	if tr != nil {
		mem.metrics(o, fleetCapacity(d), s.Makespan)
	}
	return o
}

func share(a, b int) float64 { return share64(int64(a), int64(b)) }

// perSecond is a count per simulated second, 0 over an empty span.
func perSecond(n int, span event.Time) float64 {
	if span <= 0 {
		return 0
	}
	return float64(n) / span.Seconds()
}

func share64(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
