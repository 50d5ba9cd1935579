// Package main_test is the benchmark harness of the reproduction: one
// testing.B benchmark per table and figure of the paper's evaluation
// (see DESIGN.md's per-experiment index), plus the ablation benches.
// Each benchmark regenerates the corresponding artefact through
// internal/experiments; run
//
//	go test -bench=. -benchmem
//
// to reproduce everything, or cmd/mlimp-bench to get the artefacts as
// text.
package main_test

import (
	"fmt"
	"math/rand"
	goruntime "runtime"
	"testing"
	"time"

	"mlimp/internal/cluster"
	"mlimp/internal/event"
	"mlimp/internal/event/parsim"
	"mlimp/internal/experiments"
	"mlimp/internal/fault"
	"mlimp/internal/gnn"
	"mlimp/internal/graph"
	"mlimp/internal/isa"
	"mlimp/internal/predict"
	"mlimp/internal/runtime"
	"mlimp/internal/sched"
	"mlimp/internal/serve"
	"mlimp/internal/workload"
)

// run executes one registered experiment b.N times, reporting its
// artefact size so accidental truncation is visible in benchmark diffs.
func run(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	var bytes int
	for i := 0; i < b.N; i++ {
		res := e.Run()
		bytes = len(res.Text)
		if bytes == 0 {
			b.Fatalf("%s produced an empty artefact", id)
		}
	}
	b.ReportMetric(float64(bytes), "artefact-bytes")
}

func BenchmarkFig01_TechnologyCharacteristics(b *testing.B) { run(b, "fig01") }
func BenchmarkFig05_SubgraphDistribution(b *testing.B)      { run(b, "fig05") }
func BenchmarkFig10_NaiveClassifier(b *testing.B)           { run(b, "fig10") }
func BenchmarkFig11_KernelSpeedup(b *testing.B)             { run(b, "fig11") }
func BenchmarkFig12_DeviceMixBreakdown(b *testing.B)        { run(b, "fig12") }
func BenchmarkFig13_ApplicationBreakdown(b *testing.B)      { run(b, "fig13") }
func BenchmarkFig14_Energy(b *testing.B)                    { run(b, "fig14") }
func BenchmarkFig15_SchedulerPredictor(b *testing.B)        { run(b, "fig15") }
func BenchmarkFig16_OracleFraction(b *testing.B)            { run(b, "fig16") }
func BenchmarkFig17_AppKernelTimes(b *testing.B)            { run(b, "fig17") }
func BenchmarkFig18_Multiprogramming(b *testing.B)          { run(b, "fig18") }
func BenchmarkFig19_SchedulerComparison(b *testing.B)       { run(b, "fig19") }
func BenchmarkTab1_Datasets(b *testing.B)                   { run(b, "tab1") }
func BenchmarkTab2_AppCombinations(b *testing.B)            { run(b, "tab2") }
func BenchmarkTab3_Configurations(b *testing.B)             { run(b, "tab3") }
func BenchmarkStress_PredictorNoise(b *testing.B)           { run(b, "stress") }
func BenchmarkModel_ScaleFreeFit(b *testing.B)              { run(b, "scalefit") }
func BenchmarkPredictor_Accuracy(b *testing.B)              { run(b, "predacc") }
func BenchmarkAblation_ReuseModel(b *testing.B)             { run(b, "abl-reuse") }
func BenchmarkAblation_KneeAllocation(b *testing.B)         { run(b, "abl-knee") }
func BenchmarkAblation_Replication(b *testing.B)            { run(b, "abl-replica") }
func BenchmarkAblation_InterQueueEpsilon(b *testing.B)      { run(b, "abl-epsilon") }
func BenchmarkAblation_Compiler(b *testing.B)               { run(b, "abl-compiler") }
func BenchmarkExtension_Serving(b *testing.B)               { run(b, "serving") }
func BenchmarkExtension_ServingNode(b *testing.B)           { run(b, "serving-node") }
func BenchmarkExtension_Quantization(b *testing.B)          { run(b, "quant") }
func BenchmarkExtension_Cluster(b *testing.B)               { run(b, "cluster") }
func BenchmarkExtension_Faults(b *testing.B)                { run(b, "faults") }
func BenchmarkExtension_MultiTenant(b *testing.B)           { run(b, "multitenant") }
func BenchmarkExtension_Partition(b *testing.B)             { run(b, "partition") }
func BenchmarkExtension_Replication(b *testing.B)           { run(b, "replication") }

// BenchmarkReplicatedPipeline measures the replicate-when-idle policy
// on its target case: a staged GNN batch whose bottleneck SpMM layer
// serialises on one memory while arrays idle. Setup schedules the same
// batch with replication off and asserts the policy's contract — the
// replicated schedule completes in measurably fewer model cycles — then
// the timed loop measures the replicated scheduling path itself.
func BenchmarkReplicatedPipeline(b *testing.B) {
	d, ok := graph.DatasetByName("ogbl-collab")
	if !ok {
		b.Fatal("dataset missing")
	}
	rng := rand.New(rand.NewSource(910))
	m := gnn.NewGCN(rng, d.InputFeat, d.HiddenFeat, 3)
	w := gnn.BuildWorkload(rng, d, m, 2, 16)

	base := sched.NewSystem(isa.Targets...)
	baseRes := sched.NewGlobal().Schedule(base, w.AllJobs(predict.Oracle{}, base))

	sys := sched.NewSystem(isa.Targets...)
	sys.Replication = sched.ReplicateWhenIdle
	jobs := w.AllJobs(predict.Oracle{}, sys)
	sc := sched.NewGlobal()
	rep := sc.Schedule(sys, jobs)
	if rep.Makespan >= baseRes.Makespan {
		b.Fatalf("replicated makespan %v not faster than baseline %v",
			rep.Makespan, baseRes.Makespan)
	}
	b.ReportMetric(float64(baseRes.Makespan)/float64(rep.Makespan), "speedup")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sc.Schedule(sys, jobs)
		if len(res.Assignments) != len(jobs) {
			b.Fatalf("completed %d of %d jobs", len(res.Assignments), len(jobs))
		}
	}
}

// BenchmarkMultiTenantSchedule measures the array-set scheduler on one
// dense mixed-tenant batch: 32 jobs across 4 tenants packed weighted-
// fair on a full node — the multi-tenant analogue of the Fig. 19
// scheduling hot path. The job set is built once and is read-only to
// the scheduler, so iterations measure placement, not generation.
func BenchmarkMultiTenantSchedule(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	sys := sched.NewSystem(isa.Targets...)
	sys.Packing = sched.PackWeightedFair
	jobs := workload.AssignTenants(workload.RandomJobs(rng, 32, 0), 4)
	sc := sched.NewGlobal()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sc.Schedule(sys, jobs)
		if len(res.Assignments) != len(jobs) {
			b.Fatalf("completed %d of %d jobs", len(res.Assignments), len(jobs))
		}
	}
}

// BenchmarkServeFrontend drives the open-loop request front end — the
// arrival/batch-former/admission hot path of internal/serve — over a
// fixed app-request trace on the heterogeneous fleet. The request trace
// is built once and is read-only to the front end, so iterations
// measure the serving path, not workload generation.
func BenchmarkServeFrontend(b *testing.B) {
	sys := sched.NewSystem(isa.Targets...)
	src := serve.NewAppSource(sys)
	rng := rand.New(rand.NewSource(17))
	arr := serve.Trace(rng, serve.Poisson{MeanGap: 100 * event.Microsecond},
		0, 20*event.Millisecond)
	reqs := src.Requests(rng, arr, 10*event.Millisecond)
	cfgs := []cluster.NodeConfig{
		{Name: "full", Targets: isa.Targets},
		{Name: "sram-dram", Targets: []isa.Target{isa.SRAM, isa.DRAM}},
		{Name: "dram-reram", Targets: []isa.Target{isa.DRAM, isa.ReRAM}},
		{Name: "reram", Targets: []isa.Target{isa.ReRAM}},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := cluster.NewShardedDispatcher(cluster.NewPredictedCost(), cluster.Admission{MaxRetries: 1},
			cluster.ShardConfig{Workers: 1}, cfgs...)
		fe, err := serve.New(d, serve.Config{
			Requests: reqs, Budget: 200 * event.Microsecond, BatchMax: 4,
			PredictorAdmission: true, BuildJob: src.BuildJob, Seed: 17,
		})
		if err != nil {
			b.Fatal(err)
		}
		if s := fe.Run(); s.Accounted() != s.Requests {
			b.Fatalf("accounted %d of %d requests", s.Accounted(), s.Requests)
		}
	}
}

// BenchmarkPartitionRecovery measures one full region-failover cycle on
// a two-region tree: the region-1 hub freezes mid-run, region 0
// suspects it off the beacon grid, adopts its nodes, and the revival
// sweep re-dispatches whatever the freeze stranded. The workload is
// built once and is read-only to the fabric, so iterations measure
// suspicion, takeover, and recovery — not workload generation.
func BenchmarkPartitionRecovery(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	var batches []*runtime.Batch
	for i := 0; i < 30; i++ {
		batches = append(batches, &runtime.Batch{ID: i,
			Arrival: event.Time(i) * 200 * event.Microsecond,
			Jobs:    workload.RandomJobs(rng, 4, i*100)})
	}
	cfgs := make([]cluster.NodeConfig, 4)
	for i := range cfgs {
		cfgs[i] = cluster.NodeConfig{Name: fmt.Sprintf("node%d", i), Targets: isa.Targets}
	}
	plan := &fault.Plan{
		Seed:       5,
		HubCrashes: []fault.HubCrash{{Region: 1, At: event.Millisecond, Recover: 4 * event.Millisecond}},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := cluster.NewShardedDispatcher(cluster.NewLeastOutstanding(),
			cluster.Admission{MaxRetries: 6},
			cluster.ShardConfig{Workers: 1, Hubs: 2, SummaryEvery: 500 * event.Microsecond},
			cfgs...)
		if err := d.EnableFaults(cluster.FaultConfig{Plan: plan,
			Deadline: 5 * event.Millisecond}); err != nil {
			b.Fatal(err)
		}
		for _, bt := range batches {
			if err := d.Submit(bt); err != nil {
				b.Fatal(err)
			}
		}
		s := d.Run()
		if s.Accounted() != s.Submitted {
			b.Fatalf("conservation broken: %+v", s)
		}
		if s.HubCrashes != 1 || s.Takeovers == 0 {
			b.Fatalf("failover cycle missing: crashes=%d takeovers=%d", s.HubCrashes, s.Takeovers)
		}
	}
}

// BenchmarkFleetChaos64 is the fleet-chaos workload's fabric at the
// parsim layer: 64 nodes under 32 hubs, least-outstanding routing with
// weighted-fair packing, hub 3 frozen for the middle of the run and a
// lossy hub10->node21 edge, with 4 waves of 64 app batches instead of
// 16. Next to ns/op and allocs/op it reports two deterministic counts
// of the run: msgs/op, the cross-shard messages the barriers delivered,
// and windows/op, the simulation windows.
func BenchmarkFleetChaos64(b *testing.B) {
	const (
		nodes, hubs, waves = 64, 32, 4
		gap                = 60 * event.Millisecond
	)
	// The fault windows scale with the run, as in the bench workload.
	at := func(ms int) event.Time { return event.Time(ms) * event.Millisecond * waves / 16 }
	plan := &fault.Plan{
		Seed:       1,
		HubCrashes: []fault.HubCrash{{Region: 3, At: at(300), Recover: at(900)}},
		EdgeFaults: []fault.EdgeFault{{From: "hub10", To: "node21", At: at(200), Until: at(1500), DropProb: 0.3}},
	}
	rng := rand.New(rand.NewSource(1))
	var batches []*runtime.Batch
	for w := 0; w < waves; w++ {
		for n := 0; n < nodes; n++ {
			id := len(batches)
			batches = append(batches, &runtime.Batch{ID: id, Arrival: event.Time(w) * gap,
				Jobs: workload.AssignTenants(workload.RandomJobs(rng, 6, id*6), 4)})
		}
	}
	cfgs := fleetNodes(nodes)
	for i := range cfgs {
		cfgs[i].Packing = sched.PackWeightedFair
	}
	b.ReportAllocs()
	b.ResetTimer()
	var st parsim.Stats
	for i := 0; i < b.N; i++ {
		d := cluster.NewShardedDispatcher(cluster.NewLeastOutstanding(), cluster.Admission{MaxRetries: 6},
			cluster.ShardConfig{Workers: 1, Hubs: hubs}, cfgs...)
		if err := d.EnableFaults(cluster.FaultConfig{Plan: plan, Deadline: 400 * event.Millisecond}); err != nil {
			b.Fatal(err)
		}
		for _, bt := range batches {
			if err := d.Submit(bt); err != nil {
				b.Fatal(err)
			}
		}
		if s := d.Run(); s.Accounted() != s.Submitted || s.Takeovers != 1 {
			b.Fatalf("conservation or takeover broken: %v", s)
		}
		st = d.WindowStats()
	}
	b.ReportMetric(float64(st.Delivered), "msgs/op")
	b.ReportMetric(float64(st.Windows), "windows/op")
}

// fleetBatches builds the wave-synchronous workload for the shard-sweep
// bench: waves of one heavy batch per node arriving at the same
// instant, so every wave's dispatches land in one simulation window and
// the per-node Algorithm-2 scheduling passes — the dominant per-event
// work — can run on all node shards concurrently. Built once; batches
// and jobs are read-only to the fabric, so iterations share them.
func fleetBatches(nodes, waves, jobsPerBatch int) []*runtime.Batch {
	rng := rand.New(rand.NewSource(42))
	var batches []*runtime.Batch
	id := 0
	for w := 0; w < waves; w++ {
		at := event.Time(w) * 60 * event.Millisecond
		for n := 0; n < nodes; n++ {
			batches = append(batches, &runtime.Batch{ID: id, Arrival: at,
				Jobs: workload.RandomJobs(rng, jobsPerBatch, id*100)})
			id++
		}
	}
	return batches
}

// benchFleet drives a homogeneous fleet through the sharded dispatcher
// at the given worker count and hub topology — the ISSUE 5/8 speedup
// benchmarks. least-outstanding keeps the hubs estimate-free, so all
// scheduling work lives on the node shards where the workers can reach
// it; artefacts are byte-identical across worker counts (asserted
// against the serial run's completion count).
func benchFleet(b *testing.B, nodes, hubs, waves, jobsPerBatch, workers int) {
	batches, cfgs := fleetBatches(nodes, waves, jobsPerBatch), fleetNodes(nodes)
	b.ReportAllocs()
	b.ResetTimer()
	var avgActive float64
	for i := 0; i < b.N; i++ {
		avgActive = runFleet(b, batches, cfgs, hubs, workers)
	}
	// Available parallelism per window — the speedup bound a host with
	// enough cores can realise at this worker count.
	b.ReportMetric(avgActive, "avg-active-shards")
}

// fleetNodes configures n homogeneous full-target nodes.
func fleetNodes(n int) []cluster.NodeConfig {
	cfgs := make([]cluster.NodeConfig, n)
	for i := range cfgs {
		cfgs[i] = cluster.NodeConfig{Name: fmt.Sprintf("node%d", i), Targets: isa.Targets}
	}
	return cfgs
}

// runFleet runs every batch through a fresh hub tree and returns its
// average active shards per window. Beacons ride the wave cadence, so
// belief exchange stays off the dispatch fast path and completion
// echoes ride the same grid.
func runFleet(b *testing.B, batches []*runtime.Batch, cfgs []cluster.NodeConfig, hubs, workers int) float64 {
	sc := cluster.ShardConfig{Workers: workers, Hubs: hubs,
		SummaryEvery: 60 * event.Millisecond}
	d := cluster.NewShardedDispatcher(cluster.NewLeastOutstanding(), cluster.Admission{},
		sc, cfgs...)
	for _, bt := range batches {
		if err := d.Submit(bt); err != nil {
			b.Fatal(err)
		}
	}
	if s := d.Run(); s.Completed != len(batches) {
		b.Fatalf("completed %d of %d", s.Completed, len(batches))
	}
	return d.WindowStats().AvgActive()
}

// benchFleetShards is the 8-node sweep, now routed through a hub tree
// (one sub-hub per node) so per-window parallelism tracks fleet size.
func benchFleetShards(b *testing.B, workers int) {
	benchFleet(b, 8, 8, 10, 8, workers)
}

func BenchmarkFleetShards_J1(b *testing.B) { benchFleetShards(b, 1) }
func BenchmarkFleetShards_J2(b *testing.B) { benchFleetShards(b, 2) }
func BenchmarkFleetShards_J4(b *testing.B) { benchFleetShards(b, 4) }
func BenchmarkFleetShards_J8(b *testing.B) { benchFleetShards(b, 8) }

// benchFleetShards64 is the 64-node hub-bottleneck sweep the tree was
// built for: 32 sub-hubs of 2 nodes, fewer waves to keep iterations
// affordable at 8x the fleet.
func benchFleetShards64(b *testing.B, workers int) {
	benchFleet(b, 64, 32, 4, 6, workers)
}

func BenchmarkFleetShards64_J1(b *testing.B) { benchFleetShards64(b, 1) }
func BenchmarkFleetShards64_J4(b *testing.B) { benchFleetShards64(b, 4) }
func BenchmarkFleetShards64_J8(b *testing.B) { benchFleetShards64(b, 8) }

// BenchmarkParsimSpeedup64 measures the wall-clock speedup that parallel
// shard execution buys on the 64-node sweep. Each op runs the fleet
// twice: serially, as BenchmarkFleetShards64_J1 at -cpu 1 (workers 1,
// GOMAXPROCS 1), then in parallel, as _J4 at -cpu 2 (workers 4,
// GOMAXPROCS 2). It reports the ratio of the two summed wall times as
// speedup, next to the fleet's avg-active-shards; ns/op covers both
// runs. It needs two CPUs, so it skips at GOMAXPROCS 1.
func BenchmarkParsimSpeedup64(b *testing.B) {
	procs := goruntime.GOMAXPROCS(0)
	if procs < 2 {
		b.Skip("needs GOMAXPROCS >= 2 to run shards in parallel")
	}
	defer goruntime.GOMAXPROCS(procs)
	batches, cfgs := fleetBatches(64, 4, 6), fleetNodes(64)
	b.ResetTimer()
	var serial, parallel time.Duration
	var avgActive float64
	for i := 0; i < b.N; i++ {
		goruntime.GOMAXPROCS(1)
		start := time.Now()
		runFleet(b, batches, cfgs, 32, 1)
		serial += time.Since(start)
		goruntime.GOMAXPROCS(2)
		start = time.Now()
		avgActive = runFleet(b, batches, cfgs, 32, 4)
		parallel += time.Since(start)
	}
	b.ReportMetric(serial.Seconds()/parallel.Seconds(), "speedup")
	b.ReportMetric(avgActive, "avg-active-shards")
}
