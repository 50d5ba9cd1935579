// Command bench is the end-to-end and per-layer benchmark of the MLIMP
// simulator and its serving fleet. It runs four fixed workloads against
// the public APIs of graph, predict, gnn, serve, cluster, sched and
// event/parsim, checks every output, and prints each metric by name,
// unit and workload.
//
// From the repository root:
//
//	bash bench/run.sh                       # all workloads, one process each
//	bash bench/run.sh -workload gnn-serve   # one workload
//	bash bench/run.sh -trace DIR            # per-layer metrics, spans and CPU profiles under DIR
//	bash bench/run.sh -json > A.json        # machine-readable reports
//	bash bench/run.sh -compare A.json B.json
//
// run.sh builds the harness into .bench_build; `go run .` from this
// directory does the same with the caller's Go environment. See
// README.md for the workloads, the metrics and how to read them.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"strconv"
	"strings"
)

// defaultTraceDir is where -trace 1 writes spans and profiles.
const defaultTraceDir = ".bench_build/trace"

func main() {
	goruntime.GOMAXPROCS(min(2, goruntime.NumCPU()))
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload in this process (default: every workload, each in its own process)")
	seed := fs.Int64("seed", 1, "seed the workloads derive their inputs from")
	seconds := fs.Float64("seconds", 20, "host seconds of timed repeats per workload")
	trace := fs.String("trace", "0", "0: untraced; 1: traced, writing under "+defaultTraceDir+"; DIR: traced, writing under DIR")
	asJSON := fs.Bool("json", false, "print the full reports as JSON instead of text")
	cmp := fs.Bool("compare", false, "compare two -json outputs given as arguments: A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two files: A.json B.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *seconds < 0 {
		fmt.Fprintln(stderr, "bench: -seconds must not be negative")
		return 2
	}
	traceDir := ""
	switch *trace {
	case "", "0":
	case "1":
		traceDir = defaultTraceDir
	default:
		traceDir = *trace
	}
	if *name == "" {
		return runAll(*seed, *seconds, *trace, *asJSON, stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	opt := options{seed: *seed, seconds: *seconds, size: 1}
	if traceDir != "" {
		opt.traceDir = filepath.Join(traceDir, w.name)
	}
	rep, err := measure(w, opt)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if *asJSON {
		if err := json.NewEncoder(stdout).Encode(rep); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	} else {
		printText(stdout, rep)
		line, err := resultLine(rep)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, line)
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// runSet is the -json output of a run over every workload.
type runSet struct {
	Seed    int64     `json:"seed"`
	Seconds float64   `json:"seconds"`
	Reports []*report `json:"reports"`
}

// runAll runs each workload in a fresh child process, one at a time, so
// peak RSS and garbage-collector state belong to one workload.
func runAll(seed int64, seconds float64, trace string, asJSON bool, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	set := runSet{Seed: seed, Seconds: seconds}
	code := 0
	for _, w := range workloads {
		var out bytes.Buffer
		cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace, "-json")
		cmd.Stdout, cmd.Stderr = &out, stderr
		runErr := cmd.Run()
		var rep report
		if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
			fmt.Fprintf(stderr, "bench: %s: no report (%v, %v)\n", w.name, runErr, err)
			code = 1
			continue
		}
		if runErr != nil || !rep.Correct {
			code = 1
		}
		set.Reports = append(set.Reports, &rep)
		if !asJSON {
			printText(stdout, &rep)
		}
	}
	if asJSON {
		if err := json.NewEncoder(stdout).Encode(set); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	return code
}

// resultLine is the one-line summary the report ends with: correctness,
// attempted and failed simulated runs, and the median of every declared
// metric of the run's kind (end-to-end untraced, per-layer traced).
func resultLine(r *report) (string, error) {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		m, ok := r.metric(d.name)
		if !ok {
			return "", fmt.Errorf("%s: metric %s was not measured", r.Workload, d.name)
		}
		metrics[d.name] = value{Value: m.Median, Unit: d.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	return string(b), err
}

// printText renders a report for people: the run's settings, every check,
// the notes, then one line per metric.
func printText(w io.Writer, r *report) {
	wl, _ := workloadByName(r.Workload)
	fmt.Fprintf(w, "== %s  seed=%d size=%g traced=%v GOMAXPROCS=%d digest=%s\n",
		r.Workload, r.Seed, r.Size, r.Traced, r.Procs, r.Digest)
	fmt.Fprintf(w, "   load: %s\n", wl.load)
	for _, c := range r.Checks {
		status := "ok"
		if !c.OK {
			status = "FAILED"
		}
		fmt.Fprintf(w, "   check %-24s %-6s %s\n", c.Name, status, c.Detail)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   note  %s\n", n)
	}
	for _, m := range r.Metrics {
		def, _ := metricByName(m.Name)
		how := ""
		switch {
		case def.sim:
			how = "simulated"
		case m.N > 1:
			how = fmt.Sprintf("median of %d, IQR %.6g..%.6g", m.N, m.Q1, m.Q3)
		}
		fmt.Fprintf(w, "   %-11s %-28s %14.6g %-5s %s\n", r.Workload, m.Name, m.Median, m.Unit, how)
	}
	fmt.Fprintf(w, "   correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
}

// readRunSet reads a -json output: a run over every workload, or a single
// workload's report.
func readRunSet(path string) (*runSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set runSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(set.Reports) == 0 {
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil || rep.Workload == "" {
			return nil, errors.New(path + ": neither a run set nor a report")
		}
		set = runSet{Seed: rep.Seed, Reports: []*report{&rep}}
	}
	return &set, nil
}
