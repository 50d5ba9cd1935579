package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"mlimp/internal/cluster"
	"mlimp/internal/isa"
	"mlimp/internal/serve"
	"mlimp/internal/stats"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 100}, {19, 100}, {20, 50}, {100, 90}, {200, 95}, {500, 98},
		{999, 98}, {1000, 99}, {5000, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		// The rule: at least ten samples beyond the reported percentile.
		if c.n >= 20 && float64(c.n)*(1-c.want/100) < 10-1e-9 {
			t.Errorf("n=%d: p%g leaves fewer than ten samples beyond it", c.n, c.want)
		}
	}
}

func TestMaxRate(t *testing.T) {
	rates := []float64{50e3, 71e3, 91e3, 125e3}
	for _, c := range []struct {
		name string
		met  []float64
		want float64
	}{
		{"knee", []float64{1, 0.994, 0.978, 0.891}, 71e3},
		{"every rate", []float64{1, 1, 0.995, 0.99}, 125e3},
		{"no rate", []float64{0.98, 0.9, 0.8, 0.7}, 0},
		{"non-monotone takes the highest qualifying", []float64{0.95, 0.995, 0.9, 0.8}, 71e3},
	} {
		if got := maxRate(rates, c.met); got != c.want {
			t.Errorf("%s: maxRate = %g, want %g", c.name, got, c.want)
		}
	}
}

// A serving run's shed and dead-lettered requests never complete, so
// they must count as SLO misses and as failures.
func TestShedAndDeadLetterCountAsMisses(t *testing.T) {
	s := serve.Summary{
		Requests: 10, Completed: 6, ShedAdmission: 2, ShedOverload: 1, DeadLettered: 1,
		SLO: stats.SLOStats{Requests: 10, Completed: 6, Met: 5},
	}
	d := cluster.NewShardedDispatcher(cluster.NewPredictedCost(), cluster.Admission{},
		cluster.ShardConfig{}, cluster.NodeConfig{Targets: isa.Targets})
	o := newOutcome()
	serveRun{s: s, d: d}.metrics(o, nil)
	if got := o.sim["slo_miss_frac"]; math.Abs(got-0.5) > 1e-12 {
		t.Errorf("slo_miss_frac = %g, want 0.5 (1 late + 3 shed + 1 dead-lettered of 10)", got)
	}
	if got := o.sim["fail_frac"]; math.Abs(got-0.4) > 1e-12 {
		t.Errorf("fail_frac = %g, want 0.4", got)
	}
}

func TestRegressedRelativeBoundWithFloor(t *testing.T) {
	runS, _ := metricByName("run_s")         // lower is better, 25% with a 20 ms floor
	good, _ := metricByName("goodput_per_s") // higher is better, 20%, no floor
	for _, c := range []struct {
		m    metricDef
		a, b float64
		want bool
	}{
		{runS, 1.0, 1.24, false},
		{runS, 1.0, 1.27, true},
		{runS, 1.0, 0.5, false},
		{runS, 0.05, 0.068, false}, // +36% but under the 20 ms floor
		{runS, 0.05, 0.075, true},  // +50% and past the floor
		{good, 100, 81, false},
		{good, 100, 79, true},
		{good, 100, 150, false},
	} {
		if got := regressed(c.m, c.a, c.b); got != c.want {
			t.Errorf("regressed(%s, %g -> %g) = %v, want %v", c.m.name, c.a, c.b, got, c.want)
		}
	}
}

// The quartiles must match Python's statistics.quantiles(xs, n=4), the
// method spreads are judged by.
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want summary
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, summary{Median: 5.5, Q1: 2.75, Q3: 8.25, N: 10}},
		{[]float64{3, 1, 2}, summary{Median: 2, Q1: 1, Q3: 3, N: 3}},
		{[]float64{1, 2, 3, 4}, summary{Median: 2.5, Q1: 1.25, Q3: 3.75, N: 4}},
		{[]float64{7}, summary{Median: 7, Q1: 7, Q3: 7, N: 1}},
	} {
		if got := summarize(c.xs); got != c.want {
			t.Errorf("summarize(%v) = %+v, want %+v", c.xs, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	runS, _ := metricByName("run_s")
	lat, _ := metricByName("lat_p99_ms")
	tight := func(m float64) summary { return summary{Median: m, Q1: m * 0.99, Q3: m * 1.01, N: 9} }
	wide := summary{Median: 1, Q1: 0.8, Q3: 1.3, N: 9}
	for _, c := range []struct {
		name string
		m    metricDef
		a, b summary
		want string
	}{
		{"within bound", runS, tight(1), tight(1.1), agree},
		{"past bound", runS, tight(1), tight(1.3), worse},
		{"better past bound", runS, tight(1), tight(0.7), better},
		{"spread wider than bound", runS, tight(1), wide, unresolved},
		{"simulated identical", lat, tight(2), tight(2), agree},
		{"simulated any worsening", lat, tight(2), tight(2.0001), worse},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// BENCHMARK.json and the metric catalog must declare the same workloads
// and metrics with the same units, directions and bounds.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	var names, whys []string
	for _, w := range spec.Workloads {
		names, whys = append(names, w.Name), append(whys, w.Why)
	}
	var wantWhys []string
	for _, w := range workloads {
		wantWhys = append(wantWhys, w.why)
	}
	if !reflect.DeepEqual(names, workloadNames()) || !reflect.DeepEqual(whys, wantWhys) {
		t.Errorf("workloads %v do not match the catalog %v", names, workloadNames())
	}
	decl := func(defs []metricDef, bounded bool) []metric {
		var out []metric
		for _, d := range defs {
			m := metric{Name: d.name, Unit: d.unit, Better: d.better}
			if bounded {
				b := d.bound
				m.Bound = &b
			}
			out = append(out, m)
		}
		return out
	}
	if !reflect.DeepEqual(spec.EndToEnd, decl(endToEnd, true)) {
		t.Errorf("end_to_end differs from the catalog:\n got %+v\nwant %+v", spec.EndToEnd, decl(endToEnd, true))
	}
	setup, _ := metricByName("setup_s")
	for _, m := range endToEnd {
		if m.bound <= 0 || m.bound > setup.bound || m.bound > 0.25 {
			t.Errorf("%s: bound %g must be in (0, setup_s bound %g] and at most 0.25", m.name, m.bound, setup.bound)
		}
	}
	if !reflect.DeepEqual(spec.PerLayer, decl(perLayer, false)) {
		t.Errorf("per_layer differs from the catalog")
	}
	if !reflect.DeepEqual(spec.Paths, []string{"bench"}) || len(spec.Command) == 0 {
		t.Errorf("command %v / paths %v", spec.Command, spec.Paths)
	}
}
