package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"mlimp/internal/graph"
)

const (
	// A run builds its inputs at least minBuilds times, and keeps building
	// while the builds so far took under setupBudget, up to maxBuilds;
	// setup_s is the median. Quick set-ups thus get enough builds for a
	// steady median without slow ones paying for more than three. After
	// the first, the builds are spread over the run, up to buildSlot of
	// them before each timed repeat, so a passing slow phase of a shared
	// host cannot skew them all.
	minBuilds   = 3
	maxBuilds   = 100
	setupBudget = 500 * time.Millisecond
	buildSlot   = 50 * time.Millisecond
	// minRepeats is the fewest timed repeats of a run, however long each
	// one takes.
	minRepeats = 3
)

// options configure one workload run.
type options struct {
	seed    int64
	seconds float64 // host time spent on timed repeats
	size    float64 // 1 is the benchmark's size
	// traceDir, when set, makes the run a traced run that writes
	// spans.json and cpu.pprof there and reports per-layer metrics.
	traceDir string
}

// report is everything one workload run measured. The -json output and
// -compare read it.
type report struct {
	Workload  string        `json:"workload"`
	Seed      int64         `json:"seed"`
	Size      float64       `json:"size"`
	Traced    bool          `json:"traced"`
	Procs     int           `json:"gomaxprocs"`
	Correct   bool          `json:"correct"`
	Attempted int           `json:"attempted"`
	Failed    int           `json:"failed"`
	Digest    string        `json:"digest"`
	Checks    []checkResult `json:"checks"`
	Notes     []string      `json:"notes"`
	Metrics   []metricValue `json:"metrics"`
}

type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

type metricValue struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
	summary
}

func (r *report) metric(name string) (metricValue, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metricValue{}, false
}

// checker folds the checks of every repeat into one result per name.
type checker struct {
	order   []string
	results map[string]*checkResult
}

func (c *checker) add(name string, ok bool, detail string) {
	if c.results == nil {
		c.results = map[string]*checkResult{}
	}
	r := c.results[name]
	if r == nil {
		r = &checkResult{Name: name, OK: true, Detail: detail}
		c.results[name] = r
		c.order = append(c.order, name)
	}
	if !ok && r.OK {
		r.OK, r.Detail = false, detail
	}
}

func (c *checker) list() []checkResult {
	out := make([]checkResult, 0, len(c.order))
	for _, n := range c.order {
		out = append(out, *c.results[n])
	}
	return out
}

// measure runs one workload. It builds the inputs, runs them once untimed
// as the reference, then repeats them on fresh program state for the time
// budget, building them again between repeats to time the set-up. A
// traced run spends half the budget untraced and half with the span
// wrappers and a CPU profile on.
func measure(w workload, opt options) (*report, error) {
	traced := opt.traceDir != ""
	var tr *tracer
	if traced {
		tr = newTracer()
		if err := os.MkdirAll(opt.traceDir, 0o755); err != nil {
			return nil, err
		}
	}
	rep := &report{Workload: w.name, Seed: opt.seed, Size: opt.size, Traced: traced,
		Procs: goruntime.GOMAXPROCS(0)}
	var chk checker
	samples := map[string][]float64{}

	// build constructs the inputs once and times it. Construction is
	// single-threaded; timing the building thread alone keeps the
	// collector's background workers and the scavenger, whose share of a
	// few-millisecond build varies widely, out of setup_s.
	var setup time.Duration
	build := func() (inputs, *phases) {
		ph := &phases{}
		goruntime.GC()
		goruntime.LockOSThread()
		defer goruntime.UnlockOSThread()
		c0 := threadCPUTime()
		in := w.build(opt.seed, opt.size, ph)
		d := threadCPUTime() - c0
		setup += d
		samples["setup_s"] = append(samples["setup_s"], d.Seconds())
		return in, ph
	}
	moreBuilds := func() bool {
		n := len(samples["setup_s"])
		return n < minBuilds || (setup < setupBudget && n < maxBuilds)
	}
	in, ph := build()
	// Each further build replaces the inputs the repeats run on, so only
	// one copy is ever alive (keeping peak RSS that of one build) and the
	// determinism check covers the builds too.
	rebuild := func() {
		in = nil
		in, _ = build()
	}
	// buildSome spends one slot on further builds.
	buildSome := func() {
		for t0 := time.Now(); moreBuilds(); {
			rebuild()
			if time.Since(t0) >= buildSlot {
				return
			}
		}
	}

	layer := map[string][]float64{}
	var setupSpans []span
	if traced {
		for _, s := range ph.steps {
			setupSpans = append(setupSpans, span{name: "setup." + s.name, lane: "main",
				start: s.start.Sub(tr.epoch), end: s.end.Sub(tr.epoch), parent: -1, id: -1})
		}
		layer["predict.train_s"] = []float64{ph.total("predict.train").Seconds()}
		layer["serve.requests_s"] = []float64{ph.total("serve.requests").Seconds()}
		if r, ok := in.(replayer); ok {
			g := map[string]float64{}
			setupSpans = append(setupSpans, replayGraph(r.replay(), tr, g)...)
			for k, v := range g {
				layer[k] = []float64{v}
			}
		}
	}

	ref := in.run(nil)
	if r, ok := in.(referencer); ok {
		r.reference(ref)
	}
	rep.Attempted++
	rep.Digest = ref.digest()
	for _, c := range ref.checks {
		chk.add(c.name, c.ok, c.detail)
	}
	rep.Notes = append(rep.Notes, ref.notes...)
	if !allOK(ref.checks) {
		rep.Failed++
	}

	// repeat runs the inputs once, timed, and checks the outcome against
	// the reference.
	repeat := func(tr *tracer) *outcome {
		goruntime.GC()
		var m0, m1 goruntime.MemStats
		goruntime.ReadMemStats(&m0)
		t0, c0 := time.Now(), cpuTime()
		o := in.run(tr)
		dt, dc := time.Since(t0), cpuTime()-c0
		goruntime.ReadMemStats(&m1)
		rep.Attempted++
		key := "run_s"
		if tr != nil {
			key = "traced_run_s"
		} else {
			samples["alloc_mb"] = append(samples["alloc_mb"], float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
			samples["mallocs_k"] = append(samples["mallocs_k"], float64(m1.Mallocs-m0.Mallocs)/1e3)
			samples["wall_s"] = append(samples["wall_s"], dt.Seconds())
		}
		samples[key] = append(samples[key], dc.Seconds())
		same := o.digest() == rep.Digest
		if !same || !allOK(o.checks) {
			rep.Failed++
		}
		for _, c := range o.checks {
			chk.add(c.name, c.ok, c.detail)
		}
		if tr == nil {
			chk.add("determinism", same, fmt.Sprintf("digest %s identical over every repeat", rep.Digest))
		} else {
			chk.add("tracing transparent", same,
				fmt.Sprintf("traced digest %s equals the untraced digest", rep.Digest))
		}
		return o
	}

	budget := time.Duration(opt.seconds * float64(time.Second))
	if traced {
		budget /= 2
	}
	for i, start := 0, time.Now(); i < minRepeats || time.Since(start) < budget; i++ {
		buildSome()
		repeat(nil)
	}
	for moreBuilds() {
		rebuild()
	}
	if traced {
		if err := tracedRepeats(tr, budget, opt.traceDir, repeat, layer); err != nil {
			return nil, err
		}
		runS := summarize(samples["run_s"]).Median
		tracedS := summarize(samples["traced_run_s"]).Median
		layer["trace.overhead_frac"] = []float64{tracedS/runS - 1}
		if w := layer["parsim.windows"]; len(w) > 0 && w[0] > 0 {
			layer["parsim.host_us_per_window"] = []float64{runS / w[0] * 1e6}
		} else {
			layer["parsim.host_us_per_window"] = []float64{0}
		}
		if err := tr.writeChrome(filepath.Join(opt.traceDir, "spans.json"), setupSpans); err != nil {
			return nil, err
		}
	}
	samples["peak_rss_mb"] = []float64{float64(rusage(syscall.RUSAGE_SELF).Maxrss) * 1024 / 1e6} // KiB on Linux
	for name, v := range ref.sim {
		samples[name] = []float64{v}
	}

	rep.Checks = chk.list()
	rep.Correct = rep.Failed == 0
	for _, c := range rep.Checks {
		rep.Correct = rep.Correct && c.OK
	}
	add := func(defs []metricDef, from map[string][]float64) {
		for _, d := range defs {
			if v, ok := from[d.name]; ok {
				rep.Metrics = append(rep.Metrics, metricValue{Name: d.name, Unit: d.unit, summary: summarize(v)})
			}
		}
	}
	add(endToEnd, samples)
	add([]metricDef{{name: "wall_s", unit: "s"}}, samples)
	if !traced {
		add(perLayer, samples) // the unbounded simulated end-to-end metrics
		return rep, nil
	}
	add([]metricDef{{name: "traced_run_s", unit: "s"}}, samples)
	for _, d := range perLayer {
		if v, ok := samples[d.name]; ok && d.sim {
			layer[d.name] = v
		} else if _, ok := layer[d.name]; !ok {
			layer[d.name] = []float64{0} // a layer this workload does not exercise
		}
	}
	add(perLayer, layer)
	return rep, nil
}

// cpuTime is the process's CPU time so far, user plus system. Unlike
// wall time it leaves out time the hypervisor gives to other guests.
func cpuTime() time.Duration {
	ru := rusage(syscall.RUSAGE_SELF)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rusageThread is Linux's RUSAGE_THREAD, which package syscall does not
// name.
const rusageThread = 1

// threadCPUTime is the calling thread's CPU time so far; callers lock
// their goroutine to the thread.
func threadCPUTime() time.Duration {
	ru := rusage(rusageThread)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func rusage(who int) syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		panic("bench: getrusage: " + err.Error()) // both kinds exist on Linux, the only supported host
	}
	return ru
}

func allOK(cs []check) bool {
	for _, c := range cs {
		if !c.ok {
			return false
		}
	}
	return true
}

// tracedRepeats runs the traced half of a traced run under a CPU profile
// and folds the spans, the simulated layer metrics and the profile's
// attribution into layer.
func tracedRepeats(tr *tracer, budget time.Duration, dir string, repeat func(*tracer) *outcome, layer map[string][]float64) error {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	n := 0
	for start := time.Now(); n < minRepeats || time.Since(start) < budget; n++ {
		tr.beginRepeat()
		o := repeat(tr)
		tr.endRepeat()
		m := map[string]float64{}
		tr.layerMetrics(m)
		if n == 0 {
			for k, v := range o.layer {
				m[k] = v // simulated, so the same on every repeat
			}
		}
		for k, v := range m {
			layer[k] = append(layer[k], v)
		}
	}
	pprof.StopCPUProfile()
	if err := os.WriteFile(filepath.Join(dir, "cpu.pprof"), prof.Bytes(), 0o644); err != nil {
		return err
	}
	p, err := parseProfile(prof.Bytes())
	if err != nil {
		return err
	}
	for l, s := range p.shares() {
		layer["host_share."+l] = []float64{s}
	}
	layer["predict.refit_s"] = []float64{p.cumulative("mlimp/internal/predict.(*MLP).Refit") / float64(n)}
	layer["cluster.admission_est_s"] = []float64{
		p.cumulative("mlimp/internal/cluster.(*ShardedDispatcher).PredictedCompletion") / float64(n)}
	return nil
}

// replayGraph re-runs a workload's subgraph sampling on a freshly
// generated mother graph and a fresh sampler, timing each query, and
// returns the spans it recorded.
func replayGraph(r graphReplay, tr *tracer, m map[string]float64) []span {
	var spans []span
	rec := func(name string, id int, start time.Time) {
		spans = append(spans, span{name: name, lane: "main", start: start.Sub(tr.epoch),
			end: time.Since(tr.epoch), parent: -1, id: id})
	}
	t0 := time.Now()
	g := r.d.Generate(newRand(r.seed))
	rec("graph.generate", -1, t0)
	m["graph.generate_s"] = time.Since(t0).Seconds()
	s := graph.NewSampler(newRand(r.seed), g, 2, 0)
	durs := make([]float64, 0, len(r.queries))
	var total time.Duration
	var nodes, nnz int
	for i, q := range r.queries {
		t0 := time.Now()
		sg := s.Sample(q)
		d := time.Since(t0)
		rec("graph.sample", i, t0)
		total += d
		durs = append(durs, float64(d)/float64(time.Microsecond))
		nodes += sg.NumNodes()
		nnz += sg.NNZ()
	}
	m["graph.sample_s"] = total.Seconds()
	m["graph.sample_us_p50"] = percentile(durs, 50)
	m["graph.sample_us_p99"] = percentile(durs, tailPercentile(len(durs)))
	m["graph.subgraph_nodes_mean"] = share(nodes, len(r.queries))
	m["graph.subgraph_nnz_mean"] = share(nnz, len(r.queries))
	return spans
}
