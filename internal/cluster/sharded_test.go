package cluster

import (
	"testing"

	"mlimp/internal/event"
	"mlimp/internal/fault"
	"mlimp/internal/isa"
)

// chaosSharded mirrors chaosRun on the sharded dispatcher: the same
// fault cascade — transient array fault, kill + revive, permanent kill,
// exec errors, deadlines — driven through the mailbox fabric with the
// given worker count.
func chaosSharded(policy Policy, workers int) Summary {
	return chaosFleet(policy, workers).Run()
}

// chaosFleet builds chaosSharded's fleet, ready to Run.
func chaosFleet(policy Policy, workers int) *ShardedDispatcher {
	d := NewShardedDispatcher(policy, Admission{MaxRetries: 6}, ShardConfig{Workers: workers},
		fullNode("a"), fullNode("b"), fullNode("c"))
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
	if err := d.EnableFaults(FaultConfig{Plan: plan, Deadline: 50 * event.Millisecond}); err != nil {
		panic(err)
	}
	for i := 0; i < 30; i++ {
		if err := d.Submit(mkBatch(i, event.Time(i)*200*event.Microsecond, 4)); err != nil {
			panic(err)
		}
	}
	return d
}

// TestShardedWorkerEquivalence is the determinism contract end to end:
// the full failure cascade must render byte-identically for every
// worker count, for every policy. Run with -race this also shakes out
// any simulation state shared across shards.
func TestShardedWorkerEquivalence(t *testing.T) {
	for _, pname := range PolicyNames() {
		var want string
		for _, workers := range []int{1, 2, 4, 8} {
			policy, _ := PolicyByName(pname)
			got := chaosSharded(policy, workers).String()
			if workers == 1 {
				want = got
				continue
			}
			if got != want {
				t.Errorf("policy %s: workers=%d diverges from workers=1:\n%s\nvs\n%s",
					pname, workers, got, want)
			}
		}
	}
}

// TestShardedReplayDeterministic: two identical parallel runs replay
// bit for bit (determinism within one worker count, not just across).
func TestShardedReplayDeterministic(t *testing.T) {
	p1, _ := PolicyByName("predicted-cost")
	p2, _ := PolicyByName("predicted-cost")
	if a, b := chaosSharded(p1, 4).String(), chaosSharded(p2, 4).String(); a != b {
		t.Errorf("parallel chaos replay diverged:\n%s\nvs\n%s", a, b)
	}
}

func TestShardedChaosConservation(t *testing.T) {
	s := chaosSharded(NewRoundRobin(), 4)
	conserved(t, s)
	if s.Completed == 0 {
		t.Fatal("sharded chaos run completed nothing")
	}
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
	if byName["a"].ArraysLost != 0 {
		t.Errorf("node a still missing %d arrays after recovery", byName["a"].ArraysLost)
	}
}

// TestShardedRoundRobinSpreadsEvenly: the basic routing behaviour
// survives the move to mailbox dispatch.
func TestShardedRoundRobinSpreadsEvenly(t *testing.T) {
	d := NewShardedDispatcher(NewRoundRobin(), Admission{}, ShardConfig{Workers: 4},
		fullNode("a"), fullNode("b"))
	for i := 0; i < 6; i++ {
		d.Submit(mkBatch(i, event.Time(i)*event.Second, 4))
	}
	s := d.Run()
	if s.Completed != 6 || s.Shed != 0 {
		t.Fatalf("summary = %v", s)
	}
	for _, ns := range s.Nodes {
		if ns.Batches != 3 {
			t.Errorf("node %s served %d batches, want 3", ns.Name, ns.Batches)
		}
	}
}

// TestShardedPredictedCostPrefersFastNode: hub-side views carry enough
// state (mirror systems, booked estimates) for the cost-model policy to
// route around a two-orders-of-magnitude slower node.
func TestShardedPredictedCostPrefersFastNode(t *testing.T) {
	d := NewShardedDispatcher(NewPredictedCost(), Admission{}, ShardConfig{Workers: 4},
		NodeConfig{Name: "fast", Targets: []isa.Target{isa.SRAM}},
		NodeConfig{Name: "slow", Targets: []isa.Target{isa.ReRAM}},
	)
	for i := 0; i < 6; i++ {
		d.Submit(mkBatch(i, event.Time(i)*event.Millisecond, 4))
	}
	s := d.Run()
	if s.Completed != 6 {
		t.Fatalf("completed %d of 6", s.Completed)
	}
	for _, ns := range s.Nodes {
		if ns.Name == "slow" && ns.Batches != 0 {
			t.Errorf("predicted-cost routed %d batches to the slow node", ns.Batches)
		}
	}
}

// TestShardedAdmissionSheds: a burst beyond the fleet's queue capacity
// sheds the excess, exactly once each.
func TestShardedAdmissionSheds(t *testing.T) {
	d := NewShardedDispatcher(NewLeastOutstanding(), Admission{QueueCap: 2}, ShardConfig{Workers: 2},
		fullNode("a"))
	for i := 0; i < 5; i++ {
		d.Submit(mkBatch(i, 0, 4))
	}
	s := d.Run()
	conserved(t, s)
	if s.Completed != 2 || s.Shed != 3 {
		t.Errorf("completed=%d shed=%d, want 2/3", s.Completed, s.Shed)
	}
}

// TestShardedHopBoundsLiveness sanity-checks the lookahead constants:
// the network hop must leave room for a heartbeat round trip (ping and
// pong) inside each heartbeat period, or liveness detection loses its
// meaning.
func TestShardedHopBoundsLiveness(t *testing.T) {
	if 2*DefaultHop >= DefaultHeartbeat {
		t.Fatalf("heartbeat round trip %v must fit inside a heartbeat period %v",
			2*DefaultHop, DefaultHeartbeat)
	}
}
