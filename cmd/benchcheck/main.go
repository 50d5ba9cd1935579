// Command benchcheck is the bench-regression gate: it parses `go test
// -bench` output (stdin or -in), compares each benchmark's ns/op
// against a committed baseline JSON, and fails when the geometric mean
// of the ratios regresses past -threshold. With -update it rewrites the
// baseline from the measured run instead of comparing, which is how the
// baseline file is refreshed after an intentional perf change.
//
// Usage:
//
//	go test -run '^$' -bench 'Fleet|Extension' -benchmem . | benchcheck -baseline BENCH_BASELINE.json
//	go test -run '^$' -bench 'Fleet|Extension' -benchmem . | benchcheck -baseline BENCH_BASELINE.json -update
//
// Benchmarks present in the run but missing from the baseline are
// reported and skipped (they cannot regress); baseline entries missing
// from the run fail the check, so a silently deleted benchmark cannot
// hide a regression. -threshold gates the geomean; -tolerance
// additionally gates each individual benchmark, so one badly regressed
// benchmark cannot hide inside an acceptable average. The comparison is benchstat-flavoured but
// dependency-free: single-sample geomean with a per-bench report,
// which is the right weight for a CI smoke gate (full statistics need
// -count >= 10 and a real benchstat run).
//
// Runs with -benchmem also carry allocs/op. Allocation counts are
// deterministic, unlike ns/op, so they take a tight per-benchmark gate:
// a benchmark whose allocs/op exceeds its baseline by more than
// allocTolerance percent fails. A baseline without allocation counts
// skips that gate.
//
// A benchmark may also report counts of its own beside ns/op
// (b.ReportMetric columns such as `1894 windows/op`). Those the baseline
// lists under exact_per_op are facts of the simulated run, identical on
// every machine, so any difference from the baseline fails, as does a
// listed count missing from the run. -update refreshes the listed
// counts from the run and adds no new ones: a count joins the gate by
// being added to the baseline by hand.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// allocTolerance is the percentage by which a benchmark's allocs/op may
// exceed its baseline count.
const allocTolerance = 10

// Baseline is the committed reference: benchmark name (with the -P
// GOMAXPROCS suffix stripped) to ns/op and, from -benchmem runs, to
// allocs/op. A parsed run has the same shape.
type Baseline struct {
	// Note explains how the file was produced; carried through -update.
	Note        string             `json:"note,omitempty"`
	NsPerOp     map[string]float64 `json:"ns_per_op"`
	AllocsPerOp map[string]float64 `json:"allocs_per_op,omitempty"`
	// ExactPerOp holds, by benchmark and then unit, the reported counts
	// that must match exactly. A parsed run holds every reported count.
	ExactPerOp map[string]map[string]float64 `json:"exact_per_op,omitempty"`
}

// benchLine matches `BenchmarkName-8   100   12345 ns/op   ...` and the
// suffix-less form emitted with GOMAXPROCS unset; perOpColumn picks each
// `value unit/op` column out of the rest of the line.
var (
	benchLine   = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(.*)$`)
	perOpColumn = regexp.MustCompile(`\s([0-9.e+-]+) (\S+/op)`)
)

func parseBench(r io.Reader) (Baseline, error) {
	got := Baseline{NsPerOp: map[string]float64{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return Baseline{}, fmt.Errorf("bad ns/op in %q: %v", sc.Text(), err)
		}
		got.NsPerOp[m[1]] = ns
		for _, c := range perOpColumn.FindAllStringSubmatch(m[3], -1) {
			v, err := strconv.ParseFloat(c[1], 64)
			if err != nil {
				return Baseline{}, fmt.Errorf("bad %s in %q: %v", c[2], sc.Text(), err)
			}
			switch c[2] {
			case "B/op":
			case "allocs/op":
				if got.AllocsPerOp == nil {
					got.AllocsPerOp = map[string]float64{}
				}
				got.AllocsPerOp[m[1]] = v
			default:
				if got.ExactPerOp == nil {
					got.ExactPerOp = map[string]map[string]float64{}
				}
				if got.ExactPerOp[m[1]] == nil {
					got.ExactPerOp[m[1]] = map[string]float64{}
				}
				got.ExactPerOp[m[1]][c[2]] = v
			}
		}
	}
	return got, sc.Err()
}

// gated keeps the counts of run that base lists under exact_per_op: the
// exact map -update writes.
func gated(base, run Baseline) map[string]map[string]float64 {
	var out map[string]map[string]float64
	for name, units := range base.ExactPerOp {
		for unit := range units {
			if v, ok := run.ExactPerOp[name][unit]; ok {
				if out == nil {
					out = map[string]map[string]float64{}
				}
				if out[name] == nil {
					out[name] = map[string]float64{}
				}
				out[name][unit] = v
			}
		}
	}
	return out
}

func main() {
	baseline := flag.String("baseline", "BENCH_BASELINE.json", "committed baseline JSON")
	in := flag.String("in", "", "bench output file; default stdin")
	update := flag.Bool("update", false, "rewrite the baseline from this run instead of comparing")
	threshold := flag.Float64("threshold", 1.10,
		"fail when geomean(new/old) exceeds this ratio")
	tolerance := flag.Float64("tolerance", 0,
		"fail when any single benchmark regresses more than this percentage (0 disables the per-bench gate)")
	note := flag.String("note", "", "note stored in the baseline on -update")
	flag.Parse()
	if *tolerance < 0 {
		fatal(fmt.Errorf("-tolerance must be >= 0 (got %g)", *tolerance))
	}

	src := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		src = f
	}
	got, err := parseBench(src)
	if err != nil {
		fatal(err)
	}
	if len(got.NsPerOp) == 0 {
		fatal(fmt.Errorf("no benchmark lines found in input"))
	}

	if *update {
		old := Baseline{}
		if raw, err := os.ReadFile(*baseline); err == nil {
			_ = json.Unmarshal(raw, &old)
		}
		got.Note = old.Note
		if *note != "" {
			got.Note = *note
		}
		got.ExactPerOp = gated(old, got)
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*baseline, append(raw, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("benchcheck: wrote %d benchmarks to %s\n", len(got.NsPerOp), *baseline)
		return
	}

	raw, err := os.ReadFile(*baseline)
	if err != nil {
		fatal(err)
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fatal(fmt.Errorf("%s: %v", *baseline, err))
	}

	if compare(os.Stdout, base, got, *threshold, *tolerance) {
		os.Exit(1)
	}
}

// compare writes the per-benchmark report and returns true when the
// check fails: a baseline benchmark missing from the run, the geomean
// past threshold, (with tolerance > 0) any single benchmark regressed
// by more than tolerance percent, any baseline allocs/op count
// exceeded by more than allocTolerance percent or missing from the
// run, or any exact_per_op count that differs or is missing — each
// per-bench failure names the benchmark and its delta.
func compare(w io.Writer, base, got Baseline, threshold, tolerance float64) bool {
	var names []string
	for name := range base.NsPerOp {
		names = append(names, name)
	}
	sort.Strings(names)

	logSum, n := 0.0, 0
	fail := false
	var over []string
	for _, name := range names {
		old := base.NsPerOp[name]
		now, ok := got.NsPerOp[name]
		if !ok {
			fmt.Fprintf(w, "MISSING  %-50s baseline %.0f ns/op, not in run\n", name, old)
			fail = true
			continue
		}
		ratio := now / old
		logSum += math.Log(ratio)
		n++
		delta := (ratio - 1) * 100
		tag := "ok      "
		if tolerance > 0 && delta > tolerance {
			tag = "SLOWER  "
			over = append(over, fmt.Sprintf("%s %+.1f%%", name, delta))
		} else if ratio > threshold {
			tag = "SLOWER  "
		} else if ratio < 1/threshold {
			tag = "faster  "
		}
		fmt.Fprintf(w, "%s %-50s %12.0f -> %12.0f ns/op  (%+.1f%%)\n",
			tag, name, old, now, delta)
		if oldA, gated := base.AllocsPerOp[name]; gated {
			nowA, ok := got.AllocsPerOp[name]
			switch {
			case !ok:
				fmt.Fprintf(w, "MISSING  %-50s baseline %.0f allocs/op, run has none (pass -benchmem)\n", name, oldA)
				fail = true
			case nowA > oldA*(1+allocTolerance/100.0):
				fmt.Fprintf(w, "benchcheck: FAIL — %s allocs/op %.0f -> %.0f exceeds %d%%\n",
					name, oldA, nowA, allocTolerance)
				fail = true
			default:
				fmt.Fprintf(w, "ok       %-50s %12.0f -> %12.0f allocs/op\n", name, oldA, nowA)
			}
		}
		var units []string
		for unit := range base.ExactPerOp[name] {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			want := base.ExactPerOp[name][unit]
			switch now, ok := got.ExactPerOp[name][unit]; {
			case !ok:
				fmt.Fprintf(w, "MISSING  %-50s baseline %g %s, not in run\n", name, want, unit)
				fail = true
			case now != want:
				fmt.Fprintf(w, "benchcheck: FAIL — %s %s %g -> %g differs from its exact baseline\n", name, unit, want, now)
				fail = true
			default:
				fmt.Fprintf(w, "ok       %-50s %12g == %12g %s\n", name, want, now, unit)
			}
		}
	}
	for name := range got.NsPerOp {
		if _, ok := base.NsPerOp[name]; !ok {
			fmt.Fprintf(w, "new      %-50s %12.0f ns/op (not in baseline, skipped)\n", name, got.NsPerOp[name])
		}
	}
	if n == 0 {
		fatal(fmt.Errorf("no overlapping benchmarks between run and baseline"))
	}
	geomean := math.Exp(logSum / float64(n))
	fmt.Fprintf(w, "geomean  %.3fx over %d benchmarks (threshold %.2fx)\n", geomean, n, threshold)
	if geomean > threshold {
		fmt.Fprintf(w, "benchcheck: FAIL — geomean regression %.1f%% exceeds %.0f%%\n",
			(geomean-1)*100, (threshold-1)*100)
		fail = true
	}
	for _, o := range over {
		fmt.Fprintf(w, "benchcheck: FAIL — %s exceeds -tolerance %.0f%%\n", o, tolerance)
		fail = true
	}
	if !fail {
		fmt.Fprintln(w, "benchcheck: PASS")
	}
	return fail
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
	os.Exit(1)
}
