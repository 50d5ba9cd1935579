package cluster_test

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"mlimp/internal/cluster"
	"mlimp/internal/event"
	"mlimp/internal/fault"
	"mlimp/internal/isa"
	"mlimp/internal/runtime"
	"mlimp/internal/sched"
	"mlimp/internal/serve"
	"mlimp/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current fabric")

// goldenBatch mirrors the package tests' mkBatch: n identical jobs whose
// cycle counts match on every layer, so node speed is set by layer mix.
func goldenBatch(id int, at event.Time, n int) *runtime.Batch {
	jobs := make([]*sched.Job, n)
	for i := range jobs {
		var est sched.Estimates
		for _, t := range isa.Targets {
			est.Set(t, sched.Profile{UnitCycles: 200_000, RepUnit: 8, LoadBytes: 1 << 14, Beta: sched.DefaultBeta})
		}
		jobs[i] = &sched.Job{ID: id*100 + i, Name: "cl", Kind: "cl", Est: &est}
	}
	return &runtime.Batch{ID: id, Arrival: at, Jobs: jobs}
}

func full(name string) cluster.NodeConfig {
	return cluster.NodeConfig{Name: name, Targets: isa.Targets}
}

func flat(p cluster.Policy, adm cluster.Admission, workers int, cfgs ...cluster.NodeConfig) *cluster.ShardedDispatcher {
	return cluster.NewShardedDispatcher(p, adm, cluster.ShardConfig{Workers: workers}, cfgs...)
}

func mustRun(t *testing.T, d *cluster.ShardedDispatcher, fc *cluster.FaultConfig, batches []*runtime.Batch) string {
	t.Helper()
	if fc != nil {
		if err := d.EnableFaults(*fc); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range batches {
		if err := d.Submit(b); err != nil {
			t.Fatal(err)
		}
	}
	return d.Run().String()
}

// heteroRun drives the 4-node heterogeneous fleet (a full node, two
// partial mixes, a ReRAM-only straggler) with Table II app batches.
func heteroRun(t *testing.T, policy string, workers int) string {
	p, _ := cluster.PolicyByName(policy)
	d := flat(p, cluster.Admission{}, workers,
		full("full"),
		cluster.NodeConfig{Name: "sram-dram", Targets: []isa.Target{isa.SRAM, isa.DRAM}},
		cluster.NodeConfig{Name: "dram-reram", Targets: []isa.Target{isa.DRAM, isa.ReRAM}},
		cluster.NodeConfig{Name: "reram", Targets: []isa.Target{isa.ReRAM}})
	rng := rand.New(rand.NewSource(7))
	var bs []*runtime.Batch
	for i, at := range cluster.PoissonArrivals(rng, 24, 4*event.Millisecond) {
		bs = append(bs, &runtime.Batch{ID: i, Arrival: at, Jobs: workload.RandomJobs(rng, 3, i*100)})
	}
	return mustRun(t, d, nil, bs)
}

// chaosGoldenRun is the package chaos cascade: a transient array fault,
// a crash with revival, a permanent kill, 15% exec errors and a 50ms
// dispatch deadline over three full nodes.
func chaosGoldenRun(t *testing.T, policy string, workers int) string {
	return chaosRun(t, policy, workers, false)
}

// tenantTag names batch or request i's tenant in the tenanted goldens:
// three tenants round-robin, every fourth one untenanted, so the fleet
// totals must count work that no tenant row lists.
func tenantTag(i int) string {
	if i%4 == 3 {
		return ""
	}
	return fmt.Sprintf("t%d", i%4)
}

// chaosRun drives the chaos cascade. tenanted tags the batches with
// tenantTag and cuts the re-dispatch budget to one, so tenant rows
// carry both re-dispatches and dead-letters, and adds a permanent DRAM
// fault on b, so a node row ends the run with arrays lost.
func chaosRun(t *testing.T, policy string, workers int, tenanted bool) string {
	p, _ := cluster.PolicyByName(policy)
	d := flat(p, cluster.Admission{MaxRetries: 6}, workers, full("a"), full("b"), full("c"))
	plan := &fault.Plan{
		Seed: 99,
		ArrayFaults: []fault.ArrayFault{
			{Node: "a", Target: isa.SRAM, Fraction: 0.5, At: 500 * event.Microsecond, Recover: 3 * event.Millisecond},
		},
		Crashes: []fault.Crash{
			{Node: "b", At: event.Millisecond, Recover: 4 * event.Millisecond},
			{Node: "c", At: 2 * event.Millisecond},
		},
		ExecErrorProb: 0.15,
	}
	fc := &cluster.FaultConfig{Plan: plan, Deadline: 50 * event.Millisecond}
	var bs []*runtime.Batch
	for i := 0; i < 30; i++ {
		b := goldenBatch(i, event.Time(i)*200*event.Microsecond, 4)
		if tenanted {
			b.Tenant = tenantTag(i)
			for _, j := range b.Jobs {
				j.Tenant = b.Tenant
			}
		}
		bs = append(bs, b)
	}
	if tenanted {
		fc.MaxRedispatch = 1
		plan.ArrayFaults = append(plan.ArrayFaults,
			fault.ArrayFault{Node: "b", Target: isa.DRAM, Fraction: 0.25, At: 1500 * event.Microsecond})
	}
	return mustRun(t, d, fc, bs)
}

// edgeDelayRun slows the hub->b dispatch edge for a window: a delay-only
// edge fault, the one fabric fault a single-hub fleet accepts.
func edgeDelayRun(t *testing.T, workers int) string {
	d := flat(cluster.NewRoundRobin(), cluster.Admission{MaxRetries: 2}, workers, full("a"), full("b"))
	plan := &fault.Plan{Seed: 3, EdgeFaults: []fault.EdgeFault{
		{From: "hub0", To: "b", At: event.Millisecond, Until: 6 * event.Millisecond, Delay: 300 * event.Microsecond},
	}}
	var bs []*runtime.Batch
	for i := 0; i < 16; i++ {
		bs = append(bs, goldenBatch(i, event.Time(i)*400*event.Microsecond, 3))
	}
	return mustRun(t, d, &cluster.FaultConfig{Plan: plan}, bs)
}

// serveRun is one open-loop front-end run: Table II app requests with
// predictor admission over a 3-node heterogeneous fleet.
func serveRun(t *testing.T, workers int) string {
	return serveFleetRun(t, workers, false)
}

// serveFleetRun drives the front-end run. tenanted tags the requests
// with tenantTag and adds 20% exec errors under a one-re-dispatch
// budget, so the serving tenant rows carry re-dispatches and
// dead-letters too.
func serveFleetRun(t *testing.T, workers int, tenanted bool) string {
	sys := sched.NewSystem(isa.Targets...)
	src := serve.NewAppSource(sys)
	rng := rand.New(rand.NewSource(11))
	gap := 300 * event.Microsecond
	reqs := src.Requests(rng, serve.Trace(rng, serve.Poisson{MeanGap: gap}, 0, 200*gap), 30*event.Millisecond)
	d := flat(cluster.NewPredictedCost(), cluster.Admission{MaxRetries: 1}, workers,
		full("full"),
		cluster.NodeConfig{Name: "sram-dram", Targets: []isa.Target{isa.SRAM, isa.DRAM}},
		cluster.NodeConfig{Name: "reram", Targets: []isa.Target{isa.ReRAM}})
	if tenanted {
		for i, r := range reqs {
			r.Tenant = tenantTag(i)
		}
		fc := cluster.FaultConfig{Plan: &fault.Plan{Seed: 5, ExecErrorProb: 0.2}, MaxRedispatch: 1}
		if err := d.EnableFaults(fc); err != nil {
			t.Fatal(err)
		}
	}
	fe, err := serve.New(d, serve.Config{
		Requests: reqs, Budget: 200 * event.Microsecond, BatchMax: 4,
		PredictorAdmission: true, BuildJob: src.BuildJob, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return fe.Run().String()
}

// TestFlatFabricGolden pins the single-hub fabric's observable output:
// each run's summary must match its testdata/<name>.golden byte for
// byte at sim workers 1 and 4. Regenerate after an intended change with
// go test ./internal/cluster -run TestFlatFabricGolden -update.
func TestFlatFabricGolden(t *testing.T) {
	runs := map[string]func(t *testing.T, workers int) string{
		"edge-delay":    edgeDelayRun,
		"serve":         serveRun,
		"serve-tenants": func(t *testing.T, w int) string { return serveFleetRun(t, w, true) },
		"chaos-tenants": func(t *testing.T, w int) string { return chaosRun(t, "predicted-cost", w, true) },
	}
	for _, p := range cluster.PolicyNames() {
		p := p
		runs["hetero-"+p] = func(t *testing.T, w int) string { return heteroRun(t, p, w) }
		runs["chaos-"+p] = func(t *testing.T, w int) string { return chaosGoldenRun(t, p, w) }
	}
	for name, run := range runs {
		name, run := name, run
		t.Run(name, func(t *testing.T) {
			path := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(run(t, 1)+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				if got := run(t, workers) + "\n"; got != string(want) {
					t.Errorf("workers=%d diverges from %s:\n%s\nwant:\n%s", workers, path, got, want)
				}
			}
		})
	}
}
