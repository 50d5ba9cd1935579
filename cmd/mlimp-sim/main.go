// Command mlimp-sim runs one MLIMP GNN simulation end to end: it builds
// a synthetic OGB stand-in workload, optionally trains the MLP
// performance predictor, schedules the kernel jobs across the configured
// in-memory layers, and reports makespan, per-kernel breakdown, energy,
// and the CPU/GPU baseline comparison.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"

	"mlimp/internal/baseline"
	"mlimp/internal/core"
	"mlimp/internal/event"
	"mlimp/internal/gnn"
	"mlimp/internal/graph"
	"mlimp/internal/isa"
	"mlimp/internal/predict"
	"mlimp/internal/runtime"
	"mlimp/internal/sched"
	"mlimp/internal/tensor"
)

func main() {
	dataset := flag.String("dataset", "ogbl-collab", "Table I dataset stand-in")
	scheduler := flag.String("scheduler", "global", "ljf | naive-ljf | adaptive | global")
	predictor := flag.String("predictor", "oracle", "oracle | mlp")
	layers := flag.String("layers", "sram,dram,reram", "comma-separated memory layers")
	batches := flag.Int("batches", 2, "number of query batches")
	batchSize := flag.Int("batch-size", 16, "queries per batch")
	seed := flag.Int64("seed", 1, "random seed")
	intervalMs := flag.Float64("interval-ms", 0,
		"serve batches online at this arrival interval instead of one offline run")
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "mlimp-sim: "+format+"\n", args...)
		os.Exit(2)
	}
	d, ok := graph.DatasetByName(*dataset)
	if !ok {
		names := make([]string, len(graph.Datasets))
		for i, dd := range graph.Datasets {
			names[i] = dd.Name
		}
		fail("unknown -dataset %q (available: %s)", *dataset, strings.Join(names, ", "))
	}
	targets, err := isa.ParseTargets(*layers)
	if err != nil {
		fail("-layers: %v", err)
	}
	var sc sched.Scheduler
	switch *scheduler {
	case "ljf":
		sc = sched.LJF{}
	case "naive-ljf":
		sc = sched.LJF{Strict: true}
	case "adaptive":
		sc = sched.NewAdaptive()
	case "global":
		sc = sched.NewGlobal()
	default:
		fail("unknown -scheduler %q (want ljf | naive-ljf | adaptive | global)", *scheduler)
	}
	if *predictor != "oracle" && *predictor != "mlp" {
		fail("unknown -predictor %q (want oracle | mlp)", *predictor)
	}
	if *batches <= 0 {
		fail("-batches must be positive (got %d)", *batches)
	}
	if *batchSize <= 0 {
		fail("-batch-size must be positive (got %d)", *batchSize)
	}
	if !(*intervalMs >= 0) {
		fail("-interval-ms must be >= 0 (got %g)", *intervalMs)
	}

	rng := rand.New(rand.NewSource(*seed))
	model := gnn.NewGCN(rng, d.InputFeat, d.HiddenFeat, 3)
	w := gnn.BuildWorkload(rng, d, model, *batches, *batchSize)
	fmt.Printf("workload: %s stand-in (%d nodes, %d edges), %d batches x %d queries, %d subgraphs\n",
		d.Name, w.Graph.N, w.Graph.NumEdges(), *batches, *batchSize, len(w.Subgraphs()))

	sys := core.New(targets, core.WithScheduler(sc))

	var p predict.Predictor = predict.Oracle{}
	if *predictor == "mlp" {
		fmt.Println("training MLP performance predictor on the mother graph...")
		s := graph.NewSampler(rng, w.Graph, 2, 0)
		var training []*tensor.CSR
		for i := 0; i < 96; i++ {
			training = append(training, s.Sample(rng.Intn(w.Graph.N)).Adj)
		}
		p = predict.Train(rng, training, d.InputFeat, predict.DefaultTrainConfig())
	}

	// Online serving mode: the sampled batches arrive at a fixed
	// interval and queue at the system, reporting the operator-facing
	// latency distribution (p50/p90/p99 plus queue-delay percentiles)
	// instead of one offline makespan.
	if *intervalMs > 0 {
		rt, err := runtime.New(sys.Sys, sc)
		if err != nil {
			log.Fatal(err)
		}
		for i := range w.Batches {
			single := &gnn.Workload{
				Dataset: w.Dataset, Model: w.Model, Graph: w.Graph,
				Batches: w.Batches[i : i+1],
			}
			if err := rt.Submit(&runtime.Batch{
				ID:      i,
				Arrival: event.Time(float64(i) * *intervalMs * float64(event.Millisecond)),
				Jobs:    single.AllJobs(p, sys.Sys),
			}); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("serving %d batches every %.2fms with the %s scheduler on %v\n",
			len(w.Batches), *intervalMs, sc.Name(), targets)
		fmt.Println(rt.Run())
		return
	}

	jobs := w.AllJobs(p, sys.Sys)
	fmt.Printf("scheduling %d kernel jobs with the %s scheduler on %v\n", len(jobs), sc.Name(), targets)
	rep := sys.Run(jobs)
	fmt.Println()
	fmt.Println("MLIMP:", rep)
	fmt.Printf("  per-layer placements: %v\n", rep.TargetJobs)
	fmt.Printf("  energy: %s\n", rep.Energy)
	fmt.Printf("  oracle throughput fraction: %.2f\n", sys.OracleFraction(jobs, rep))

	gpu := core.Baseline(baseline.TitanXP(), w)
	cpu := core.Baseline(baseline.XeonE5(), w)
	fmt.Printf("\nbaselines on the same workload:\n")
	fmt.Printf("  %-16s %8.3f ms  (%.1fx MLIMP)  %.3g J\n", gpu.Device.Name,
		gpu.Total.Millis(), float64(gpu.Total)/float64(rep.Makespan()), gpu.EnergyJ)
	fmt.Printf("  %-16s %8.3f ms  (%.1fx MLIMP)  %.3g J\n", cpu.Device.Name,
		cpu.Total.Millis(), float64(cpu.Total)/float64(rep.Makespan()), cpu.EnergyJ)
}
