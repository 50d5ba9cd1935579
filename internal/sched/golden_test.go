package sched_test

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"mlimp/internal/event"
	"mlimp/internal/gnn"
	"mlimp/internal/graph"
	"mlimp/internal/isa"
	"mlimp/internal/predict"
	"mlimp/internal/sched"
	"mlimp/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/schedule.golden from the current schedulers")

// gcnBatches samples n batches of 16 two-hop ogbl-collab subgraphs and
// expands each into its SpMM/GEMM/Vadd job stream for a 3-layer GCN —
// the shape of the gnn-batch benchmark workload. The oracle predictor
// keeps the estimates independent of predictor training.
func gcnBatches(seed int64, n int) [][]*sched.Job {
	d, _ := graph.DatasetByName("ogbl-collab")
	rng := rand.New(rand.NewSource(seed))
	g := d.Generate(rng)
	s := graph.NewSampler(rng, g, 2, 0)
	m := gnn.NewGCN(rng, d.InputFeat, d.HiddenFeat, 3)
	sys := sched.NewSystem(isa.Targets...)
	out := make([][]*sched.Job, n)
	for b := range out {
		queries := make([]int, 16)
		for i := range queries {
			queries[i] = rng.Intn(g.N)
		}
		w := &gnn.Workload{Dataset: d, Model: m, Graph: g, Batches: [][]*graph.Subgraph{s.SampleBatch(queries)}}
		out[b] = w.AllJobs(predict.Oracle{}, sys)
	}
	return out
}

// TestScheduleGolden pins every placement the three schedulers make —
// job, target, arrays, start and end — on a GCN batch and a Table II
// app batch, on a plain system, with replicate-when-idle, and with one
// layer degraded, plus the knee and model times of 200 seeded random
// profiles. Any change to the cost model, its memo or the schedulers'
// ordering that moves a single placement shows up as a diff here.
func TestScheduleGolden(t *testing.T) {
	batches := [][]*sched.Job{gcnBatches(7, 1)[0], workload.ComboJobs("D")}
	variants := []struct {
		name  string
		setup func(*sched.System)
	}{
		{"plain", func(*sched.System) {}},
		{"replicate", func(s *sched.System) { s.Replication = sched.ReplicateWhenIdle }},
		{"degraded", func(s *sched.System) { s.Degrade(isa.DRAM, s.Layers[isa.DRAM].Capacity()/3) }},
	}
	var buf bytes.Buffer
	for _, v := range variants {
		for _, sc := range []sched.Scheduler{sched.LJF{}, sched.NewAdaptive(), sched.NewGlobal()} {
			// One System per (variant, scheduler) carries its memos from
			// the first batch into the second, as a serving node does.
			sys := sched.NewSystem(isa.Targets...)
			v.setup(sys)
			for b, jobs := range batches {
				res := sc.Schedule(sys, jobs)
				fmt.Fprintf(&buf, "%s %s batch%d makespan=%d\n", v.name, sc.Name(), b, res.Makespan)
				for _, a := range res.Assignments {
					fmt.Fprintf(&buf, "  job%d %s arrays=%d start=%d end=%d\n", a.Job.ID, a.Target, a.Arrays, a.Start, a.End)
				}
			}
		}
	}
	writeModelPoints(&buf)
	path := filepath.Join("testdata", "schedule.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("schedule output changed at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("schedule output changed: %d lines, want %d", len(gl), len(wl))
	}
}

// writeModelPoints appends KneeAlloc and ModelTime over 200 seeded
// random profiles and layer capacities, one System throughout so memo
// hits and misses interleave.
func writeModelPoints(buf *bytes.Buffer) {
	rng := rand.New(rand.NewSource(11))
	sys := sched.NewSystem(isa.Targets...)
	for i := 0; i < 200; i++ {
		tgt := isa.Targets[rng.Intn(len(isa.Targets))]
		p := sched.Profile{
			UnitCycles: 1 + rng.Int63n(1<<uint(10+rng.Intn(20))),
			RepUnit:    1 + rng.Intn(64),
			LoadBytes:  rng.Int63n(1 << 24),
			StoreBytes: rng.Int63n(1 << 22),
			Overhead:   event.Time(rng.Int63n(int64(event.Millisecond))),
		}
		if rng.Intn(3) == 0 {
			p.ProgramBytes = rng.Int63n(1 << 20)
		}
		if rng.Intn(4) != 0 {
			p.Beta = 0.3 + 0.7*rng.Float64() // else the zero value: DefaultBeta
		}
		if rng.Intn(3) == 0 {
			p.MaxUseful = 1 + rng.Intn(256)
		}
		capacity := 1 + rng.Intn(4096)
		sys.Layers[tgt].SetCapacity(capacity)
		j := &sched.Job{ID: i, Est: &sched.Estimates{}}
		j.Est.Set(tgt, p)
		knee := sys.KneeAlloc(j, tgt)
		m := 1 + rng.Intn(capacity)
		fmt.Fprintf(buf, "profile%d %s cap=%d knee=%d t(1)=%d t(knee)=%d t(%d)=%d t(cap)=%d\n",
			i, tgt, capacity, knee, sys.ModelTime(j, tgt, 1), sys.ModelTime(j, tgt, knee),
			m, sys.ModelTime(j, tgt, m), sys.ModelTime(j, tgt, capacity))
	}
}
