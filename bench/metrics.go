package main

import (
	"math"
	"sort"

	"mlimp/internal/stats"
)

// metricDef declares one metric. BENCHMARK.json lists the same metrics
// with the same units, directions and bounds; a test keeps the two equal.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the baseline median by which an end-to-end
	// metric may worsen before a change counts as a regression; floor is
	// the absolute amount, in the metric's unit, below which a worsening
	// never counts. Per-layer metrics have neither.
	bound, floor float64
	// sim marks a simulated metric: exact for a given seed, so two runs
	// at one seed must agree on it exactly.
	sim bool
}

// endToEnd are the bounded metrics a user of the simulator sees,
// reported on every workload. Host metrics measure the simulator, in CPU
// time of the benchmark process; simulated ones measure the modelled
// MLIMP fleet.
var endToEnd = []metricDef{
	{name: "run_s", unit: "s", better: "lower", bound: 0.25, floor: 0.02},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, floor: 0.05},
	{name: "alloc_mb", unit: "MB", better: "lower", bound: 0.12},
	{name: "mallocs_k", unit: "k", better: "lower", bound: 0.12},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.20},
	{name: "goodput_per_s", unit: "1/s", better: "higher", bound: 0.20, sim: true},
	{name: "makespan_ms", unit: "ms", better: "lower", bound: 0.20, sim: true},
}

// perLayer are the traced run's metrics. The first six are simulated
// end-to-end metrics that vary across seeds by more than any bound the
// benchmark could fix, so they carry none; untraced runs report them
// too, and -compare requires them identical at one seed. The rest are
// one set per layer; a layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{name: "lat_p50_ms", unit: "ms", better: "lower", sim: true},
	{name: "lat_p99_ms", unit: "ms", better: "lower", sim: true},
	{name: "slo_miss_frac", unit: "frac", better: "lower", sim: true},
	{name: "fail_frac", unit: "frac", better: "lower", sim: true},
	{name: "max_rate_rps", unit: "1/s", better: "higher", sim: true},
	{name: "oracle_frac", unit: "frac", better: "higher", sim: true},

	{name: "graph.generate_s", unit: "s", better: "lower"},
	{name: "graph.sample_s", unit: "s", better: "lower"},
	{name: "graph.sample_us_p50", unit: "us", better: "lower"},
	{name: "graph.sample_us_p99", unit: "us", better: "lower"},
	{name: "graph.subgraph_nodes_mean", unit: "count", better: "lower"},
	{name: "graph.subgraph_nnz_mean", unit: "count", better: "lower"},

	{name: "predict.train_s", unit: "s", better: "lower"},
	{name: "predict.retrains", unit: "count", better: "lower"},
	{name: "predict.drifts", unit: "count", better: "lower"},
	{name: "predict.refit_s", unit: "s", better: "lower"},
	{name: "predict.abs_log_err", unit: "ratio", better: "lower"},

	{name: "serve.requests_s", unit: "s", better: "lower"},
	{name: "serve.build_job_calls", unit: "count", better: "lower"},
	{name: "serve.build_job_s", unit: "s", better: "lower"},
	{name: "serve.sealed", unit: "count", better: "higher"},
	{name: "serve.batch_size_mean", unit: "count", better: "higher"},
	{name: "serve.shed_admission", unit: "count", better: "lower"},
	{name: "serve.shed_overload", unit: "count", better: "lower"},
	{name: "serve.dead_letter", unit: "count", better: "lower"},
	{name: "serve.r50k.met_frac", unit: "frac", better: "higher"},
	{name: "serve.r71k.met_frac", unit: "frac", better: "higher"},
	{name: "serve.r91k.met_frac", unit: "frac", better: "higher"},
	{name: "serve.r125k.met_frac", unit: "frac", better: "higher"},
	{name: "serve.r50k.lat_p99_ms", unit: "ms", better: "lower"},
	{name: "serve.r71k.lat_p99_ms", unit: "ms", better: "lower"},
	{name: "serve.r91k.lat_p99_ms", unit: "ms", better: "lower"},
	{name: "serve.r125k.lat_p99_ms", unit: "ms", better: "lower"},

	{name: "cluster.pick_calls", unit: "count", better: "lower"},
	{name: "cluster.pick_s", unit: "s", better: "lower"},
	{name: "cluster.admission_est_s", unit: "s", better: "lower"},
	{name: "cluster.queue_p50_ms", unit: "ms", better: "lower"},
	{name: "cluster.queue_p99_ms", unit: "ms", better: "lower"},
	{name: "cluster.node_util_min", unit: "frac", better: "higher"},
	{name: "cluster.node_util_mean", unit: "frac", better: "higher"},
	{name: "cluster.node_util_max", unit: "frac", better: "higher"},
	{name: "cluster.retries", unit: "count", better: "lower"},
	{name: "cluster.redispatches", unit: "count", better: "lower"},
	{name: "cluster.timeouts", unit: "count", better: "lower"},
	{name: "cluster.dead_lettered", unit: "count", better: "lower"},
	{name: "cluster.takeovers", unit: "count", better: "lower"},
	{name: "cluster.rehomed", unit: "count", better: "lower"},

	{name: "sched.node_schedule_calls", unit: "count", better: "lower"},
	{name: "sched.node_schedule_s", unit: "s", better: "lower"},
	{name: "sched.node_schedule_us_p50", unit: "us", better: "lower"},
	{name: "sched.node_schedule_us_p99", unit: "us", better: "lower"},
	{name: "sched.model_hit_ratio", unit: "frac", better: "higher"},
	{name: "sched.knee_hit_ratio", unit: "frac", better: "higher"},
	{name: "sched.memo_clears", unit: "count", better: "lower"},
	{name: "sched.jobs_placed", unit: "count", better: "higher"},

	{name: "mem.sram.job_share", unit: "frac", better: "higher"},
	{name: "mem.sram.busy_ms", unit: "ms", better: "lower"},
	{name: "mem.sram.array_util", unit: "frac", better: "higher"},
	{name: "mem.dram.job_share", unit: "frac", better: "higher"},
	{name: "mem.dram.busy_ms", unit: "ms", better: "lower"},
	{name: "mem.dram.array_util", unit: "frac", better: "higher"},
	{name: "mem.reram.job_share", unit: "frac", better: "higher"},
	{name: "mem.reram.busy_ms", unit: "ms", better: "lower"},
	{name: "mem.reram.array_util", unit: "frac", better: "higher"},

	{name: "parsim.windows", unit: "count", better: "lower"},
	{name: "parsim.avg_active", unit: "count", better: "higher"},
	{name: "parsim.max_active", unit: "count", better: "higher"},
	{name: "parsim.dropped", unit: "count", better: "lower"},
	{name: "parsim.delayed", unit: "count", better: "lower"},
	{name: "parsim.host_us_per_window", unit: "us", better: "lower"},

	{name: "host_share.graph", unit: "frac", better: "lower"},
	{name: "host_share.predict", unit: "frac", better: "lower"},
	{name: "host_share.mlp", unit: "frac", better: "lower"},
	{name: "host_share.sched", unit: "frac", better: "lower"},
	{name: "host_share.cluster", unit: "frac", better: "lower"},
	{name: "host_share.parsim", unit: "frac", better: "lower"},
	{name: "host_share.event", unit: "frac", better: "lower"},
	{name: "host_share.serve", unit: "frac", better: "lower"},
	{name: "host_share.runtime", unit: "frac", better: "lower"},
	{name: "host_share.kernels", unit: "frac", better: "lower"},
	{name: "host_share.gc", unit: "frac", better: "lower"},
	{name: "host_share.other", unit: "frac", better: "lower"},
	{name: "trace.overhead_frac", unit: "frac", better: "lower"},
}

func metricByName(name string) (metricDef, bool) {
	for _, m := range endToEnd {
		if m.name == name {
			return m, true
		}
	}
	for _, m := range perLayer {
		if m.name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

// percentile is stats.Percentile with 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, p)
}

// tailPercentile is the percentile a tail latency over n samples reports:
// the highest whole percentile with at least ten samples beyond it,
// capped at p99. So p99 needs 1000 samples, and 500 samples give p98.
// Below 20 samples that would not even reach the median, so the maximum
// stands in.
func tailPercentile(n int) float64 {
	if n < 20 {
		return 100
	}
	return math.Min(99, math.Floor(100*(1-10/float64(n))+1e-9))
}

// maxRate returns the highest ladder rate at which at least 99% of the
// offered requests met their SLO, or 0 when no rate did.
func maxRate(rates, metFrac []float64) float64 {
	best := 0.0
	for i, r := range rates {
		if metFrac[i] >= 0.99 && r > best {
			best = r
		}
	}
	return best
}

// sloMissFrac is the share of offered requests that did not complete
// within their SLO. Shed and dead-lettered requests never complete, so
// they count as misses.
func sloMissFrac(met, offered int) float64 {
	if offered == 0 {
		return 0
	}
	return 1 - float64(met)/float64(offered)
}

// summary is a sample's median and quartiles. The quartiles follow
// Python's statistics.quantiles(xs, n=4) (the exclusive method), so they
// agree with spreads computed from the printed values.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return summary{}
	case 1:
		return summary{Median: s[0], Q1: s[0], Q3: s[0], N: 1}
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(n-1, j))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return summary{Median: med, Q1: q(1), Q3: q(3), N: n}
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// worsening is how much b is worse than the baseline a, in the metric's
// unit (negative when b is better).
func worsening(m metricDef, a, b float64) float64 {
	if m.better == "higher" {
		return a - b
	}
	return b - a
}

// regressed applies an end-to-end metric's bound: b regressed against the
// baseline a when it is worse by more than the bound's share of a and by
// more than its absolute floor.
func regressed(m metricDef, a, b float64) bool {
	return worsening(m, a, b) > math.Max(m.bound*math.Abs(a), m.floor)
}
