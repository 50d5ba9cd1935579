package cluster

import (
	"fmt"
	"strings"
	"testing"

	"mlimp/internal/event"
	"mlimp/internal/fault"
	"mlimp/internal/isa"
	"mlimp/internal/runtime"
)

// pickNamed routes every batch to the named node when eligible — the
// deterministic adversary the deadline and breaker tests need.
type pickNamed struct{ name string }

func (p pickNamed) Name() string { return "pick-" + p.name }

func (p pickNamed) Pick(eligible []*Node, b *runtime.Batch, now event.Time) *Node {
	for _, n := range eligible {
		if n.Name == p.name {
			return n
		}
	}
	return eligible[0]
}

func conserved(t *testing.T, s Summary) {
	t.Helper()
	if s.Accounted() != s.Submitted {
		t.Errorf("conservation broken: submitted=%d completed=%d shed=%d dead-lettered=%d",
			s.Submitted, s.Completed, s.Shed, s.DeadLettered)
	}
}

func TestChaosKillReviveMidDrain(t *testing.T) {
	s := chaosSharded(NewRoundRobin(), 1)
	conserved(t, s)
	if s.Completed == 0 {
		t.Fatal("chaos run completed nothing")
	}
	if s.Completed+s.Shed+s.DeadLettered != 30 {
		t.Errorf("terminal states sum to %d, want 30", s.Accounted())
	}
	// The permanently killed node must end down; the revived one must
	// not.
	byName := map[string]NodeSummary{}
	for _, ns := range s.Nodes {
		byName[ns.Name] = ns
	}
	if h := byName["c"].Health; h != "down" {
		t.Errorf("killed node c health = %q, want down", h)
	}
	if h := byName["b"].Health; h == "down" {
		t.Error("revived node b still down")
	}
	if byName["b"].Crashes != 1 || byName["c"].Crashes != 1 {
		t.Errorf("crash counts = %d/%d, want 1/1", byName["b"].Crashes, byName["c"].Crashes)
	}
	// The transient array fault healed before the run ended.
	if byName["a"].ArraysLost != 0 {
		t.Errorf("node a still missing %d arrays after recovery", byName["a"].ArraysLost)
	}
	if s.ExecErrors == 0 {
		t.Error("15% exec-error rate over 30 batches produced none (implausible)")
	}
	if !strings.Contains(s.String(), "health=") || !strings.Contains(s.String(), "dead-letter=") {
		t.Errorf("faulty summary render missing failure fields:\n%s", s)
	}
}

// TestChaosDeterministic: the whole failure cascade — crashes,
// detection, eviction, re-dispatch, breaker trips — replays bit-for-bit.
func TestChaosDeterministic(t *testing.T) {
	for _, p := range PolicyNames() {
		mk := func() Policy {
			pol, _ := PolicyByName(p)
			return pol
		}
		a, b := chaosSharded(mk(), 1).String(), chaosSharded(mk(), 1).String()
		if a != b {
			t.Errorf("policy %s chaos replay diverged:\n%s\nvs\n%s", p, a, b)
		}
	}
}

// TestChaosConservationGeneratedPlans: conservation holds across
// generated fault plans, policies, and seeds.
func TestChaosConservationGeneratedPlans(t *testing.T) {
	for _, pname := range PolicyNames() {
		for seed := int64(1); seed <= 3; seed++ {
			policy, _ := PolicyByName(pname)
			d := NewShardedDispatcher(policy, Admission{MaxRetries: 4}, ShardConfig{},
				fullNode("a"), fullNode("b"), fullNode("c"))
			plan, err := fault.Generate(seed, fault.GenConfig{
				Nodes:              []string{"a", "b", "c"},
				Horizon:            8 * event.Millisecond,
				ArrayFaultsPerNode: 1,
				CrashesPerNode:     0.7,
				MeanOutage:         2 * event.Millisecond,
				ExecErrorProb:      0.1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := d.EnableFaults(FaultConfig{Plan: plan, Deadline: 50 * event.Millisecond}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				if err := d.Submit(mkBatch(i, event.Time(i)*300*event.Microsecond, 3)); err != nil {
					t.Fatal(err)
				}
			}
			conserved(t, d.Run())
		}
	}
}

// TestDeadlineRedispatch: a batch stuck on a slow node past its
// deadline is aborted and re-dispatched to a faster node, completing
// there.
func TestDeadlineRedispatch(t *testing.T) {
	d := NewShardedDispatcher(pickNamed{"slow"}, Admission{}, ShardConfig{},
		NodeConfig{Name: "fast", Targets: []isa.Target{isa.SRAM}},
		NodeConfig{Name: "slow", Targets: []isa.Target{isa.ReRAM}, Scale: 0.001},
	)
	b := mkBatch(0, 0, 4)
	var fastN, slowN *Node
	for _, n := range d.Nodes() {
		if n.Name == "fast" {
			fastN = n
		} else {
			slowN = n
		}
	}
	estFast, estSlow := fastN.EstimateCost(b.Jobs), slowN.EstimateCost(b.Jobs)
	deadline := estSlow / 2
	if estFast >= deadline {
		t.Fatalf("fixture broken: fast estimate %v not well under deadline %v (slow %v)",
			estFast, deadline, estSlow)
	}
	if err := d.EnableFaults(FaultConfig{Deadline: deadline}); err != nil {
		t.Fatal(err)
	}
	if err := d.Submit(b); err != nil {
		t.Fatal(err)
	}
	s := d.Run()
	conserved(t, s)
	if s.Completed != 1 || s.Timeouts != 1 || s.Redispatches != 1 {
		t.Fatalf("completed=%d timeouts=%d redispatches=%d, want 1/1/1\n%s",
			s.Completed, s.Timeouts, s.Redispatches, s)
	}
	for _, ns := range s.Nodes {
		switch ns.Name {
		case "slow":
			if ns.Failures != 1 || ns.Batches != 0 {
				t.Errorf("slow: failures=%d batches=%d, want 1/0", ns.Failures, ns.Batches)
			}
		case "fast":
			if ns.Batches != 1 {
				t.Errorf("fast: batches=%d, want 1", ns.Batches)
			}
		}
	}
}

// TestCircuitBreakerEjectsAndRecovers: K consecutive failures open the
// node's breaker; after the cooldown a half-open probe succeeds and the
// node is reinstated.
func TestCircuitBreakerEjectsAndRecovers(t *testing.T) {
	d := NewShardedDispatcher(pickNamed{"flaky"}, Admission{}, ShardConfig{},
		fullNode("flaky"), fullNode("good"))
	fc := FaultConfig{
		// Batches 0-2 fail their first attempt wherever it lands (it
		// lands on flaky — the policy pins them there).
		ExecError: func(batchID, attempt int) bool { return batchID < 3 && attempt == 0 },
		BreakerK:  3,
	}
	if err := d.EnableFaults(fc); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := d.Submit(mkBatch(i, event.Time(i)*100*event.Microsecond, 2)); err != nil {
			t.Fatal(err)
		}
	}
	// Batch 3 arrives well after the breaker cooldown: flaky is
	// half-open, the policy picks it as the probe, and success closes
	// the breaker.
	if err := d.Submit(mkBatch(3, 40*event.Millisecond, 2)); err != nil {
		t.Fatal(err)
	}
	s := d.Run()
	conserved(t, s)
	if s.Completed != 4 || s.ExecErrors != 3 || s.Redispatches != 3 {
		t.Fatalf("completed=%d exec-errors=%d redispatches=%d, want 4/3/3\n%s",
			s.Completed, s.ExecErrors, s.Redispatches, s)
	}
	for _, ns := range s.Nodes {
		if ns.Name == "flaky" {
			if ns.Failures != 3 {
				t.Errorf("flaky failures = %d, want 3", ns.Failures)
			}
			if ns.Health != "healthy" {
				t.Errorf("flaky health = %q, want healthy after probe success", ns.Health)
			}
			// The probe batch completed on flaky after reinstatement.
			if ns.Batches != 1 {
				t.Errorf("flaky served %d batches, want exactly the probe", ns.Batches)
			}
		}
	}
}

// TestArrayFaultForcesKneeResearch: a capacity fault mid-run shrinks a
// layer; the node re-plans (capacity-keyed knee memo) and keeps
// serving, then recovers.
func TestArrayFaultForcesKneeResearch(t *testing.T) {
	d := NewShardedDispatcher(NewRoundRobin(), Admission{}, ShardConfig{}, fullNode("solo"))
	r := d.regions[0]
	n, v := r.sns[0].node, r.views[0]
	healthy := n.Sys.Layers[isa.SRAM].Capacity()
	plan := &fault.Plan{ArrayFaults: []fault.ArrayFault{{
		Node: "solo", Target: isa.SRAM, Fraction: 0.9,
		At: 200 * event.Microsecond, Recover: 5 * event.Millisecond,
	}}}
	if err := d.EnableFaults(FaultConfig{Plan: plan}); err != nil {
		t.Fatal(err)
	}
	sawDegraded := false
	// The serial driver (Workers 0) runs every shard on this goroutine,
	// so the probe may read the hub's view from the node's shard.
	r.sns[0].shard.Engine().At(event.Millisecond, func() {
		sawDegraded = mergedHealth(n, v) == Degraded
		if got := n.Sys.Layers[isa.SRAM].Capacity(); got >= healthy {
			t.Errorf("capacity %d not degraded at 1ms", got)
		}
	})
	for i := 0; i < 8; i++ {
		if err := d.Submit(mkBatch(i, event.Time(i)*400*event.Microsecond, 3)); err != nil {
			t.Fatal(err)
		}
	}
	s := d.Run()
	conserved(t, s)
	if s.Completed != 8 {
		t.Fatalf("completed = %d, want all 8 despite degradation", s.Completed)
	}
	if !sawDegraded {
		t.Error("node never reported Degraded during the outage")
	}
	if n.Sys.Layers[isa.SRAM].Capacity() != healthy || n.ArraysLost() != 0 {
		t.Errorf("capacity %d / lost %d after recovery, want %d / 0",
			n.Sys.Layers[isa.SRAM].Capacity(), n.ArraysLost(), healthy)
	}
}

// TestNodeHealthTransitions exercises the health verdict off the engine:
// node-side ground truth (crash → down, revive → healthy, degrade →
// degraded) merged with the hub view's belief (breaker, monitor).
func TestNodeHealthTransitions(t *testing.T) {
	n := NewNode(&event.Engine{}, fullNode("h"))
	v := newView(fullNode("h"))
	v.breaker = newBreaker(3, event.Millisecond)
	if h := mergedHealth(n, v); h != Healthy {
		t.Fatalf("fresh node health = %v", h)
	}
	n.degrade(isa.DRAM, 100)
	if h := mergedHealth(n, v); h != Degraded || n.ArraysLost() != 100 {
		t.Errorf("after degrade: health=%v lost=%d", h, n.ArraysLost())
	}
	n.crash()
	if h := mergedHealth(n, v); h != DownHealth {
		t.Errorf("after crash: health=%v", h)
	}
	n.revive()
	if h := mergedHealth(n, v); h != Degraded {
		t.Errorf("after revive with lost arrays: health=%v", h)
	}
	n.restore(isa.DRAM, 100)
	if h := mergedHealth(n, v); h != Healthy {
		t.Errorf("after restore: health=%v", h)
	}
	for i := 0; i < 3; i++ {
		v.breaker.OnFailure(0)
	}
	if h := mergedHealth(n, v); h != Degraded {
		t.Errorf("after breaker trip: health=%v", h)
	}
	v.detectedDown = true
	if h := mergedHealth(n, v); h != DownHealth {
		t.Errorf("after monitor verdict: health=%v", h)
	}
	for _, h := range []Health{Healthy, Degraded, DownHealth} {
		if h.String() == "" {
			t.Error("empty health render")
		}
	}
}

// TestEnableFaultsErrors: bad plans and unknown nodes are rejected.
func TestEnableFaultsErrors(t *testing.T) {
	d := NewShardedDispatcher(NewRoundRobin(), Admission{}, ShardConfig{}, fullNode("a"))
	if err := d.EnableFaults(FaultConfig{Plan: &fault.Plan{ExecErrorProb: 2}}); err == nil {
		t.Error("invalid plan accepted")
	}
	if err := d.EnableFaults(FaultConfig{Plan: &fault.Plan{
		Crashes: []fault.Crash{{Node: "ghost", At: event.Millisecond}},
	}}); err == nil {
		t.Error("crash on unknown node accepted")
	}
	if err := d.EnableFaults(FaultConfig{}); err != nil {
		t.Fatalf("empty config rejected: %v", err)
	}
	if err := d.EnableFaults(FaultConfig{}); err == nil {
		t.Error("double EnableFaults accepted")
	}
}

// TestLivenessAllocsFlatInPeriods pins that fault-mode heartbeats cost
// no heap per period: each is computed from the fault plan, and its
// arrival waits in a per-view buffer whose capacity is reused. Two runs
// differ only in when a late batch arrives, so the longer one keeps the
// liveness tick running for three times as many extra periods; its
// allocations may exceed the shorter run's by less than one per extra
// period.
func TestLivenessAllocsFlatInPeriods(t *testing.T) {
	const periods = 40
	var batches []*runtime.Batch
	for i := 0; i < 8; i++ {
		batches = append(batches, mkBatch(i, event.Time(i)*200*event.Microsecond, 4))
	}
	run := func(late event.Time) func() {
		all := append(batches[:len(batches):len(batches)], mkBatch(len(batches), late, 1))
		return func() {
			d := NewShardedDispatcher(NewLeastOutstanding(), Admission{}, ShardConfig{Workers: 1},
				fullNode("a"), fullNode("b"), fullNode("c"), fullNode("d"))
			if err := d.EnableFaults(FaultConfig{}); err != nil {
				panic(err)
			}
			for _, b := range all {
				if err := d.Submit(b); err != nil {
					panic(err)
				}
			}
			if s := d.Run(); s.Completed != len(all) {
				panic(fmt.Sprintf("completed %d of %d batches", s.Completed, len(all)))
			}
		}
	}
	short := testing.AllocsPerRun(3, run(periods*DefaultHeartbeat))
	long := testing.AllocsPerRun(3, run(4*periods*DefaultHeartbeat))
	if extra := long - short; extra >= 3*periods {
		t.Errorf("%v extra allocations over %d extra heartbeat periods (%v vs %v), want < one per period",
			extra, 3*periods, long, short)
	}
}
