package main

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mlimp/internal/cluster"
	"mlimp/internal/event"
	"mlimp/internal/fault"
	"mlimp/internal/isa"
	"mlimp/internal/runtime"
	appjobs "mlimp/internal/workload"
)

// The span wrappers must not change what the program does: a traced run's
// simulated output is byte-identical to an untraced one.
func TestTracingIsTransparentOnGNNServe(t *testing.T) {
	in := buildGNNServe(3, 0.05, &phases{})
	plain := in.run(nil)
	tr := newTracer()
	tr.beginRepeat()
	traced := in.run(tr)
	tr.endRepeat()
	if plain.digest() != traced.digest() {
		t.Fatalf("traced digest %s differs from untraced %s", traced.digest(), plain.digest())
	}
	st := tr.stats()
	for _, name := range []string{spanBuildJob, spanPick, spanSchedule} {
		if st[name] == nil || st[name].calls == 0 {
			t.Errorf("no %s spans recorded", name)
		}
	}
}

// treeRun serves a fixed batch stream on a two-region hub tree whose
// region-1 hub is frozen for a while, with predicted-cost routing on a
// heterogeneous fleet: the regions clone the policy, and routing depends
// on the estimates the dispatcher books only for UsesEstimates policies.
func treeRun(tr *tracer) string {
	cfgs := []cluster.NodeConfig{
		{Name: "n0", Targets: isa.Targets},
		{Name: "n1", Targets: []isa.Target{isa.SRAM, isa.DRAM}},
		{Name: "n2", Targets: []isa.Target{isa.DRAM, isa.ReRAM}},
		{Name: "n3", Targets: isa.Targets, Scale: 0.25},
	}
	tr.wrapSchedulers(cfgs)
	d := cluster.NewShardedDispatcher(tr.wrapPolicy(cluster.NewPredictedCost()), cluster.Admission{MaxRetries: 4},
		cluster.ShardConfig{Workers: 2, Hubs: 2, SummaryEvery: 500 * event.Microsecond}, cfgs...)
	plan := &fault.Plan{Seed: 5, HubCrashes: []fault.HubCrash{
		{Region: 1, At: 5 * event.Millisecond, Recover: 30 * event.Millisecond}}}
	if err := d.EnableFaults(cluster.FaultConfig{Plan: plan, Deadline: 200 * event.Millisecond}); err != nil {
		panic(err)
	}
	var log strings.Builder
	d.OnDone(func(di cluster.DoneInfo) {
		fmt.Fprintf(&log, "%d %v %s %d\n", di.Batch.ID, di.Outcome, di.Node, di.At)
	})
	rng := rand.New(rand.NewSource(7))
	for i, at := range cluster.PoissonArrivals(rng, 48, 800*event.Microsecond) {
		if err := d.Submit(&runtime.Batch{ID: i, Arrival: at, Jobs: appjobs.RandomJobs(rng, 3, i*10)}); err != nil {
			panic(err)
		}
	}
	s := d.Run()
	return s.String() + "\n" + log.String()
}

func TestTracingIsTransparentOnHubTreeWithHubCrash(t *testing.T) {
	plain := treeRun(nil)
	tr := newTracer()
	tr.beginRepeat()
	traced := treeRun(tr)
	tr.endRepeat()
	if plain != traced {
		t.Fatalf("traced run differs from untraced run:\n--- untraced\n%s\n--- traced\n%s", plain, traced)
	}
	if !strings.Contains(plain, "hub-crash=1") {
		t.Fatalf("the hub crash did not happen:\n%s", plain)
	}
	// Regions pick with their own clones of the root policy; picks are
	// only recorded if those clones are wrapped.
	if st := tr.stats()[spanPick]; st == nil || st.calls == 0 {
		t.Error("no pick spans: the regions run unwrapped policy clones")
	}
}
