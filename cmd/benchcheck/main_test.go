package main

import (
	"encoding/json"
	"strings"
	"testing"
)

func nsRun(ns map[string]float64) Baseline { return Baseline{NsPerOp: ns} }

func TestParseBench(t *testing.T) {
	out := `goos: linux
BenchmarkFleet-8           	     100	   1200000 ns/op	  500 B/op	       7 allocs/op
BenchmarkExtension_Replication 	      50	   2400000.5 ns/op	      1234 artefact-bytes
PASS
`
	got, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.NsPerOp) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(got.NsPerOp))
	}
	if got.NsPerOp["BenchmarkFleet"] != 1200000 {
		t.Errorf("BenchmarkFleet = %v (the -8 suffix must be stripped)", got.NsPerOp["BenchmarkFleet"])
	}
	if got.NsPerOp["BenchmarkExtension_Replication"] != 2400000.5 {
		t.Errorf("BenchmarkExtension_Replication = %v", got.NsPerOp["BenchmarkExtension_Replication"])
	}
	if got.AllocsPerOp["BenchmarkFleet"] != 7 {
		t.Errorf("BenchmarkFleet allocs/op = %v, want 7", got.AllocsPerOp["BenchmarkFleet"])
	}
	if _, ok := got.AllocsPerOp["BenchmarkExtension_Replication"]; ok {
		t.Error("allocs/op recorded for a line without -benchmem columns")
	}
}

func TestCompareGeomeanGate(t *testing.T) {
	base := nsRun(map[string]float64{"BenchmarkA": 100, "BenchmarkB": 100})
	var sb strings.Builder
	if compare(&sb, base, nsRun(map[string]float64{"BenchmarkA": 105, "BenchmarkB": 105}), 1.10, 0) {
		t.Errorf("5%% regression under a 10%% threshold must pass:\n%s", sb.String())
	}
	sb.Reset()
	if !compare(&sb, base, nsRun(map[string]float64{"BenchmarkA": 150, "BenchmarkB": 150}), 1.10, 0) {
		t.Errorf("50%% regression must fail:\n%s", sb.String())
	}
}

func TestCompareToleranceGate(t *testing.T) {
	base := nsRun(map[string]float64{"BenchmarkA": 100, "BenchmarkB": 100})
	// One benchmark +30%, the other -20%: geomean ~1.02 passes the
	// threshold, but the per-bench tolerance catches the outlier.
	got := nsRun(map[string]float64{"BenchmarkA": 130, "BenchmarkB": 80})
	var sb strings.Builder
	if compare(&sb, base, got, 1.10, 0) {
		t.Errorf("without -tolerance the averaged-out outlier must pass:\n%s", sb.String())
	}
	sb.Reset()
	if !compare(&sb, base, got, 1.10, 10) {
		t.Fatalf("-tolerance 10 must catch the +30%% outlier:\n%s", sb.String())
	}
	// The failure output must name the benchmark and its delta.
	if out := sb.String(); !strings.Contains(out, "BenchmarkA +30.0%") {
		t.Errorf("failure output missing per-bench delta:\n%s", out)
	}
}

func TestCompareMissingBenchmarkFails(t *testing.T) {
	base := nsRun(map[string]float64{"BenchmarkA": 100, "BenchmarkGone": 100})
	var sb strings.Builder
	if !compare(&sb, base, nsRun(map[string]float64{"BenchmarkA": 100}), 1.10, 0) {
		t.Errorf("baseline benchmark missing from the run must fail:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "MISSING") {
		t.Errorf("missing benchmark not reported:\n%s", sb.String())
	}
}

func TestCompareAllocGate(t *testing.T) {
	ns := map[string]float64{"BenchmarkA": 100, "BenchmarkZero": 100}
	base := Baseline{NsPerOp: ns, AllocsPerOp: map[string]float64{"BenchmarkA": 10, "BenchmarkZero": 0}}
	run := func(a, zero float64) Baseline {
		return Baseline{NsPerOp: ns, AllocsPerOp: map[string]float64{"BenchmarkA": a, "BenchmarkZero": zero}}
	}
	var sb strings.Builder
	if compare(&sb, base, run(11, 0), 1.10, 0) {
		t.Errorf("+10%% allocs/op is within the alloc tolerance and must pass:\n%s", sb.String())
	}
	sb.Reset()
	if !compare(&sb, base, run(12, 0), 1.10, 0) {
		t.Fatalf("+20%% allocs/op must fail at identical ns/op:\n%s", sb.String())
	}
	if out := sb.String(); !strings.Contains(out, "BenchmarkA allocs/op 10 -> 12") {
		t.Errorf("failure output missing the alloc delta:\n%s", out)
	}
	sb.Reset()
	if !compare(&sb, base, run(10, 1), 1.10, 0) {
		t.Errorf("one allocation in a zero-alloc benchmark must fail:\n%s", sb.String())
	}
	sb.Reset()
	if !compare(&sb, base, nsRun(ns), 1.10, 0) {
		t.Errorf("a run without allocs/op against a gated baseline must fail:\n%s", sb.String())
	}
}

func TestBaselineJSONCompat(t *testing.T) {
	// A baseline written before allocation gating still loads, and it
	// does not gate allocations.
	var old Baseline
	if err := json.Unmarshal([]byte(`{"note": "n", "ns_per_op": {"BenchmarkA": 100}}`), &old); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	run := Baseline{NsPerOp: map[string]float64{"BenchmarkA": 100}, AllocsPerOp: map[string]float64{"BenchmarkA": 1e6}}
	if compare(&sb, old, run, 1.10, 0) {
		t.Errorf("an old baseline must not gate allocations:\n%s", sb.String())
	}
	// -update writes the allocation map under its JSON name.
	raw, err := json.Marshal(run)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"allocs_per_op":{"BenchmarkA":1000000}`) {
		t.Errorf("allocs_per_op missing from %s", raw)
	}
}

func TestParseBenchCounts(t *testing.T) {
	out := "BenchmarkFleetChaos64-2   5   74641789 ns/op   5595 msgs/op   469.0 windows/op   5360744 B/op   13974 allocs/op\n"
	got, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"msgs/op": 5595, "windows/op": 469}
	if c := got.ExactPerOp["BenchmarkFleetChaos64"]; len(c) != len(want) || c["msgs/op"] != 5595 || c["windows/op"] != 469 {
		t.Errorf("counts %v, want %v (B/op and allocs/op are not counts)", c, want)
	}
	if got.AllocsPerOp["BenchmarkFleetChaos64"] != 13974 {
		t.Errorf("allocs/op = %v, want 13974", got.AllocsPerOp["BenchmarkFleetChaos64"])
	}
}

func TestCompareExactGate(t *testing.T) {
	ns := map[string]float64{"BenchmarkA": 100}
	base := Baseline{NsPerOp: ns, ExactPerOp: map[string]map[string]float64{
		"BenchmarkA": {"windows/op": 469, "msgs/op": 5595},
	}}
	run := func(counts map[string]float64) Baseline {
		return Baseline{NsPerOp: ns, ExactPerOp: map[string]map[string]float64{"BenchmarkA": counts}}
	}
	var sb strings.Builder
	if compare(&sb, base, run(map[string]float64{"windows/op": 469, "msgs/op": 5595, "speedup/op": 1.7}), 1.10, 0) {
		t.Errorf("equal counts must pass, and an ungated count is ignored:\n%s", sb.String())
	}
	sb.Reset()
	if !compare(&sb, base, run(map[string]float64{"windows/op": 470, "msgs/op": 5595}), 1.10, 0) {
		t.Fatalf("a count off by one must fail:\n%s", sb.String())
	}
	if out := sb.String(); !strings.Contains(out, "BenchmarkA windows/op 469 -> 470") {
		t.Errorf("failure output missing the count delta:\n%s", out)
	}
	sb.Reset()
	if !compare(&sb, base, run(map[string]float64{"windows/op": 469}), 1.10, 0) {
		t.Errorf("a gated count missing from the run must fail:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "MISSING") {
		t.Errorf("missing count not reported:\n%s", sb.String())
	}
}

func TestUpdateKeepsGatedCounts(t *testing.T) {
	old := Baseline{ExactPerOp: map[string]map[string]float64{"BenchmarkA": {"windows/op": 1894}}}
	run := Baseline{ExactPerOp: map[string]map[string]float64{
		"BenchmarkA": {"windows/op": 469, "msgs/op": 5595},
		"BenchmarkB": {"windows/op": 7},
	}}
	got := gated(old, run)
	if len(got) != 1 || len(got["BenchmarkA"]) != 1 || got["BenchmarkA"]["windows/op"] != 469 {
		t.Errorf("-update exact map %v, want only BenchmarkA windows/op 469", got)
	}
}
