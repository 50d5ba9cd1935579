package cluster

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"mlimp/internal/event"
	"mlimp/internal/fault"
)

// fabricChaosTree runs a 4-node, 2-region tree under a fabric fault
// plan with a fast beacon grid (suspicion limit ~1.54ms at the default
// miss budget), 30 staggered arrivals, and an OnDone observer counting
// terminal states per batch. Returns the summary and the observer map.
func fabricChaosTree(policy Policy, workers int, plan *fault.Plan) (Summary, map[int]int) {
	d, seen := fabricTree(policy, workers, plan)
	return d.Run(), seen
}

// fabricTree builds fabricChaosTree's fleet, ready to Run, and its
// observer map.
func fabricTree(policy Policy, workers int, plan *fault.Plan) (*ShardedDispatcher, map[int]int) {
	d := NewShardedDispatcher(policy, Admission{MaxRetries: 6},
		ShardConfig{Workers: workers, Hubs: 2, SummaryEvery: 500 * event.Microsecond},
		fullNode("a"), fullNode("b"), fullNode("c"), fullNode("d"))
	seen := map[int]int{}
	d.OnDone(func(di DoneInfo) { seen[di.Batch.ID]++ })
	if err := d.EnableFaults(FaultConfig{Plan: plan, Deadline: 5 * event.Millisecond}); err != nil {
		panic(err)
	}
	for i := 0; i < 30; i++ {
		if err := d.Submit(mkBatch(i, event.Time(i)*200*event.Microsecond, 4)); err != nil {
			panic(err)
		}
	}
	return d, seen
}

// hubCrashPlan freezes region 1's hub for [1ms, 4ms) — longer than the
// suspicion limit, so region 0 both loses a peer and adopts its nodes.
func hubCrashPlan() *fault.Plan {
	return &fault.Plan{
		Seed:       5,
		HubCrashes: []fault.HubCrash{{Region: 1, At: event.Millisecond, Recover: 4 * event.Millisecond}},
	}
}

// TestTreeHubCrashConservation: a frozen hub loses its echoes and parks
// its routing, yet every batch still reaches exactly one terminal state,
// and the summary reports the freeze, the takeover, and the fabric
// re-dispatches the revival sweep charged.
func TestTreeHubCrashConservation(t *testing.T) {
	s, seen := fabricChaosTree(NewRoundRobin(), 4, hubCrashPlan())
	conserved(t, s)
	if s.Completed == 0 {
		t.Fatal("hub-crash run completed nothing")
	}
	if s.HubCrashes != 1 {
		t.Errorf("summary HubCrashes = %d, want 1", s.HubCrashes)
	}
	if s.Takeovers == 0 {
		t.Error("3ms freeze above the suspicion limit triggered no takeover")
	}
	for id, c := range seen {
		if c != 1 {
			t.Errorf("batch %d observed %d times (exactly-once broken)", id, c)
		}
	}
	if len(seen) != s.Submitted {
		t.Errorf("observer saw %d distinct batches, want %d", len(seen), s.Submitted)
	}
}

// TestTreeHubCrashWorkerEquivalence: the whole failover cascade —
// freeze, parked replay, suspicion, takeover, revival sweep — is
// byte-identical at every worker count.
func TestTreeHubCrashWorkerEquivalence(t *testing.T) {
	var want string
	for _, workers := range []int{1, 2, 4, 8} {
		s, _ := fabricChaosTree(NewRoundRobin(), workers, hubCrashPlan())
		got := s.String()
		if workers == 1 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("workers=%d diverges from workers=1:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// TestTreeRelayFailoverExactlyOnce: with region 0's hub frozen, sibling
// settles re-home through the lowest live hub instead of the hard-wired
// region-0 relay, and the observer still sees every batch exactly once.
func TestTreeRelayFailoverExactlyOnce(t *testing.T) {
	plan := &fault.Plan{
		Seed:       5,
		HubCrashes: []fault.HubCrash{{Region: 0, At: event.Millisecond, Recover: 4 * event.Millisecond}},
	}
	s, seen := fabricChaosTree(NewLeastOutstanding(), 4, plan)
	conserved(t, s)
	if s.Rehomed == 0 {
		t.Error("region-0 freeze re-homed no relays")
	}
	if s.HubCrashes != 1 {
		t.Errorf("summary HubCrashes = %d, want 1", s.HubCrashes)
	}
	for id, c := range seen {
		if c != 1 {
			t.Errorf("batch %d observed %d times", id, c)
		}
	}
	if len(seen) != s.Submitted {
		t.Errorf("observer saw %d of %d batches", len(seen), s.Submitted)
	}
}

// TestTreeBeaconLossSuspicion: dropping every hub1->hub0 beacon makes
// region 0 suspect its (live) predecessor and adopt its nodes — a false
// positive the fabric is designed to survive: conservation holds, the
// adoption is counted, and reliable traffic still crosses the lossy
// edge.
func TestTreeBeaconLossSuspicion(t *testing.T) {
	plan := &fault.Plan{
		Seed: 11,
		EdgeFaults: []fault.EdgeFault{
			{From: "hub1", To: "hub0", At: 0, DropProb: 1},
		},
	}
	s, seen := fabricChaosTree(NewRoundRobin(), 4, plan)
	conserved(t, s)
	if s.Takeovers == 0 {
		t.Error("total beacon loss triggered no suspicion/takeover")
	}
	if s.Completed == 0 {
		t.Fatal("beacon-loss run completed nothing")
	}
	for id, c := range seen {
		if c != 1 {
			t.Errorf("batch %d observed %d times", id, c)
		}
	}
}

// TestTreeSplitBrainPartition: a clean hub<->hub partition window makes
// both regions suspect each other and adopt each other's nodes — double
// booking on shared shard nodes — yet the booking tokens and per-batch
// echo homes keep every batch settling exactly once.
func TestTreeSplitBrainPartition(t *testing.T) {
	plan := &fault.Plan{
		Seed: 17,
		EdgeFaults: fault.PartitionEdges(
			[]string{"hub0"}, []string{"hub1"},
			event.Millisecond, 4*event.Millisecond),
	}
	var want string
	for _, workers := range []int{1, 4} {
		s, seen := fabricChaosTree(NewRoundRobin(), workers, plan)
		conserved(t, s)
		if s.Takeovers != 2 {
			t.Errorf("split brain takeovers = %d, want 2 (both sides adopt)", s.Takeovers)
		}
		for id, c := range seen {
			if c != 1 {
				t.Errorf("batch %d observed %d times", id, c)
			}
		}
		got := s.String()
		if workers == 1 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("workers=%d split-brain run diverges:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// TestFabricFaultErrors: the named-error contract for fabric fault
// plans — wrong topology, bad region, lossy edges without a deadline,
// unknown endpoints — that the CLI flags surface with exit 2.
func TestFabricFaultErrors(t *testing.T) {
	hubCrash := &fault.Plan{HubCrashes: []fault.HubCrash{{Region: 0, At: 1, Recover: 2}}}

	// A one-region fleet has edges but only one hub.
	flat := NewShardedDispatcher(NewRoundRobin(), Admission{}, ShardConfig{}, fullNode("a"))
	if err := flat.EnableFaults(FaultConfig{Plan: hubCrash}); !errors.Is(err, ErrHubCrashNeedsTree) {
		t.Errorf("flat hub crash err = %v, want ErrHubCrashNeedsTree", err)
	}

	tree := func() *ShardedDispatcher {
		return NewShardedDispatcher(NewRoundRobin(), Admission{}, ShardConfig{Hubs: 2},
			fullNode("a"), fullNode("b"))
	}
	// Region index out of range for the topology.
	bad := &fault.Plan{HubCrashes: []fault.HubCrash{{Region: 7, At: 1, Recover: 2}}}
	if err := tree().EnableFaults(FaultConfig{Plan: bad}); !errors.Is(err, fault.ErrBadHubRegion) {
		t.Errorf("out-of-range region err = %v, want fault.ErrBadHubRegion", err)
	}
	// Lossy edges need the deadline recovery path.
	lossy := &fault.Plan{EdgeFaults: []fault.EdgeFault{{From: "hub0", To: "hub1", DropProb: 0.5}}}
	if err := tree().EnableFaults(FaultConfig{Plan: lossy}); !errors.Is(err, ErrEdgeFaultNeedsDeadline) {
		t.Errorf("lossy-without-deadline err = %v, want ErrEdgeFaultNeedsDeadline", err)
	}
	// Endpoints must name real shards.
	ghost := &fault.Plan{EdgeFaults: []fault.EdgeFault{{From: "hub0", To: "zz", Delay: 10}}}
	if err := tree().EnableFaults(FaultConfig{Plan: ghost}); !errors.Is(err, ErrUnknownEdgeEndpoint) {
		t.Errorf("unknown endpoint err = %v, want ErrUnknownEdgeEndpoint", err)
	}
	// A delay-only edge fault on a one-region fleet is legal: it has
	// edges (hub0 plus the node names), just one hub.
	flat = NewShardedDispatcher(NewRoundRobin(), Admission{}, ShardConfig{}, fullNode("a"))
	slow := &fault.Plan{EdgeFaults: []fault.EdgeFault{{From: "hub0", To: "a", Delay: 10 * event.Microsecond}}}
	if err := flat.EnableFaults(FaultConfig{Plan: slow}); err != nil {
		t.Errorf("flat delay-only edge fault rejected: %v", err)
	}
}

// TestTreeFlashCrowdDuringFailover: a burst of arrivals lands inside
// the freeze window; the plan-aware spray re-routes them to the live
// region, and nothing is lost.
func TestTreeFlashCrowdDuringFailover(t *testing.T) {
	d := NewShardedDispatcher(NewLeastOutstanding(), Admission{MaxRetries: 6, QueueCap: 16},
		ShardConfig{Workers: 4, Hubs: 2, SummaryEvery: 500 * event.Microsecond},
		fullNode("a"), fullNode("b"), fullNode("c"), fullNode("d"))
	plan := hubCrashPlan()
	if err := d.EnableFaults(FaultConfig{Plan: plan, Deadline: 5 * event.Millisecond}); err != nil {
		t.Fatal(err)
	}
	id := 0
	for ; id < 10; id++ { // steady pre-crash trickle
		if err := d.Submit(mkBatch(id, event.Time(id)*100*event.Microsecond, 3)); err != nil {
			t.Fatal(err)
		}
	}
	for ; id < 30; id++ { // flash crowd inside the freeze window
		if err := d.Submit(mkBatch(id, 2*event.Millisecond, 3)); err != nil {
			t.Fatal(err)
		}
	}
	s := d.Run()
	conserved(t, s)
	if s.Completed == 0 {
		t.Fatal("flash-crowd run completed nothing")
	}
	// Every flash-crowd arrival was sprayed at a live hub: region 1 is
	// frozen at 2ms, so region 0 owns all 20 burst submissions.
	r0, r1 := row(d.regions[0].tenants, ""), row(d.regions[1].tenants, "")
	if r0.submitted < 20 {
		t.Errorf("live region 0 owns %d submissions, want >= 20 (burst re-sprayed)", r0.submitted)
	}
	if r0.submitted+r1.submitted != 30 {
		t.Errorf("regions own %d+%d submissions, want 30", r0.submitted, r1.submitted)
	}
}

// TestTreeReviveSweepChargesRedispatch: a completion echo lost to a
// hub freeze leaves its booking in doubt, so the revival sweep
// re-dispatches the batch and charges the re-dispatch to the batch's
// tenant row; the batch still settles exactly once. The freeze is
// shorter than the suspicion limit, so no takeover intervenes. The
// sweep snapshots every view's bookings before it aborts any, so the
// batch is re-dispatched exactly once even when its fresh booking lands
// on a view the sweep has not reached yet.
func TestTreeReviveSweepChargesRedispatch(t *testing.T) {
	d := NewShardedDispatcher(NewRoundRobin(), Admission{},
		ShardConfig{Workers: 2, Hubs: 2, SummaryEvery: 500 * event.Microsecond},
		fullNode("a"), fullNode("b"), fullNode("c"), fullNode("d"))
	plan := &fault.Plan{
		Seed:       5,
		HubCrashes: []fault.HubCrash{{Region: 0, At: event.Millisecond, Recover: 2 * event.Millisecond}},
	}
	if err := d.EnableFaults(FaultConfig{Plan: plan, Deadline: 5 * event.Millisecond}); err != nil {
		t.Fatal(err)
	}
	b := withTenant(mkBatch(0, 960*event.Microsecond, 3), "t0")
	if err := d.Submit(b); err != nil {
		t.Fatal(err)
	}
	s := d.Run()
	conserved(t, s)
	if s.Completed != 1 || s.Takeovers != 0 || s.Timeouts+s.ExecErrors != 0 {
		t.Fatalf("want one clean completion with no takeover, timeout or exec error: %v", s)
	}
	if s.Redispatches != 1 || len(s.Tenants) != 1 || s.Tenants[0].Redispatches != 1 {
		t.Errorf("revival sweep re-dispatches not charged to tenant t0: %v", s)
	}
}

// beatAt is a view's liveness stamp as a sweep at instant at would see
// it: lastBeat, or a later heartbeat arrival strictly before at.
func beatAt(v *Node, at event.Time) event.Time {
	b := v.lastBeat
	for _, a := range v.beats {
		if a < at && a > b {
			b = a
		}
	}
	return b
}

// TestTakeoverBeatsStampAdopterView pins heartbeat routing across a
// takeover: once region 0 adopts frozen region 1's nodes, region 0's
// heartbeats keep region 0's view of each adopted node live, while
// region 1's views of the same nodes stay as the freeze left them. Each
// hub snapshots its own views' stamps at two instants inside the
// freeze, after the adoption.
func TestTakeoverBeatsStampAdopterView(t *testing.T) {
	d := NewShardedDispatcher(NewRoundRobin(), Admission{MaxRetries: 6},
		ShardConfig{Workers: 1, Hubs: 2, SummaryEvery: 500 * event.Microsecond},
		fullNode("a"), fullNode("b"), fullNode("c"), fullNode("d"))
	if err := d.EnableFaults(FaultConfig{Plan: hubCrashPlan(), Deadline: 5 * event.Millisecond}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := d.Submit(mkBatch(i, event.Time(i)*200*event.Microsecond, 4)); err != nil {
			t.Fatal(err)
		}
	}
	adopter, frozen := d.regions[0], d.regions[1]
	crash := hubCrashPlan().HubCrashes[0]
	t1, t2 := crash.Recover-4*DefaultHeartbeat, crash.Recover-event.Microsecond
	// Per snapshot and per region-1 node: the stamp on each hub's view.
	var adopted, home [2][]event.Time
	for k, at := range []event.Time{t1, t2} {
		adopter.hub.Engine().At(at, func() {
			for _, v := range adopter.views[adopter.homeN:] {
				adopted[k] = append(adopted[k], beatAt(v, at))
			}
		})
		frozen.hub.Engine().At(at, func() {
			for _, v := range frozen.views[:frozen.homeN] {
				home[k] = append(home[k], beatAt(v, at))
			}
		})
	}
	s := d.Run()
	conserved(t, s)
	if len(adopted[0]) != frozen.homeN {
		t.Fatalf("region 0 had adopted %d of region 1's %d nodes by %v",
			len(adopted[0]), frozen.homeN, t1)
	}
	for j := range adopted[0] {
		if a1, a2 := adopted[0][j], adopted[1][j]; a2 <= a1 || a2 < t2-DefaultHeartbeat-2*DefaultHop {
			t.Errorf("adopted node %d: adopter's stamp %v at %v and %v at %v, want heartbeats to advance it",
				j, a1, t1, a2, t2)
		}
		if h1, h2 := home[0][j], home[1][j]; h2 != h1 || h2 > crash.At {
			t.Errorf("node %d: frozen region's stamp moved %v -> %v during the freeze at %v",
				j, h1, h2, crash.At)
		}
	}
}

// TestBeaconAllocsFlatInPeriods extends TestLivenessAllocsFlatInPeriods
// to the hub beacons of fabric-fault mode, where every beacon tick sends
// the hub's load to its ring neighbours as a typed message: allocations
// must be equal over N and 4N beacon periods. A delay-only edge fault
// switches a two-region tree into fabric-fault mode without losing
// messages, and the runs differ only in when a late batch arrives.
func TestBeaconAllocsFlatInPeriods(t *testing.T) {
	const (
		periods = 20
		every   = 500 * event.Microsecond
	)
	plan := &fault.Plan{EdgeFaults: []fault.EdgeFault{
		{From: "hub0", To: "hub1", Until: every, Delay: event.Microsecond},
	}}
	run := func(late event.Time) func() {
		return func() {
			d := NewShardedDispatcher(NewLeastOutstanding(), Admission{},
				ShardConfig{Workers: 1, Hubs: 2, SummaryEvery: every},
				fullNode("a"), fullNode("b"), fullNode("c"), fullNode("d"))
			if err := d.EnableFaults(FaultConfig{Plan: plan}); err != nil {
				panic(err)
			}
			for i := 0; i < 8; i++ {
				if err := d.Submit(mkBatch(i, event.Time(i)*200*event.Microsecond, 4)); err != nil {
					panic(err)
				}
			}
			if err := d.Submit(mkBatch(8, late, 1)); err != nil {
				panic(err)
			}
			if s := d.Run(); s.Completed != 9 {
				panic(fmt.Sprintf("completed %d of 9 batches", s.Completed))
			}
		}
	}
	short := testing.AllocsPerRun(3, run(periods*every))
	long := testing.AllocsPerRun(3, run(4*periods*every))
	// Equal in a plain build. Under -race the detector adds a few
	// allocations of its own per run, whatever the run length (means of
	// 722-728 against a plain 694), so allow that much; per-tick beacon
	// allocations would add two per extra period, 120 in all.
	if math.Abs(long-short) > 4 {
		t.Errorf("%v allocations over %d beacon periods, %v over %d: want equal",
			long, 4*periods, short, periods)
	}
}
