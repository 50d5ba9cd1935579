package cluster

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"mlimp/internal/event"
	"mlimp/internal/fault"
	"mlimp/internal/isa"
	"mlimp/internal/runtime"
	"mlimp/internal/sched"
	"mlimp/internal/workload"
)

var updateLiveness = flag.Bool("update-liveness", false,
	"rewrite testdata/liveness*.golden from the current fabric")

// livenessFleet is one fault-mode configuration of the liveness
// goldens: it builds a fleet at the given sim worker count, with its
// batches submitted, ready to Run.
type livenessFleet func(workers int) *ShardedDispatcher

// nodeCrashTree is a 4-region, 8-node tree with node crashes (one
// permanent), an array fault, exec errors and a custom heartbeat
// period, and no fabric faults: liveness runs per region.
func nodeCrashTree(workers int, heartbeat event.Time) *ShardedDispatcher {
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	cfgs := make([]NodeConfig, len(names))
	for i, n := range names {
		cfgs[i] = fullNode(n)
	}
	d := NewShardedDispatcher(NewLeastOutstanding(), Admission{MaxRetries: 4},
		ShardConfig{Workers: workers, Hubs: 4, SummaryEvery: 500 * event.Microsecond}, cfgs...)
	plan := &fault.Plan{
		Seed: 21,
		ArrayFaults: []fault.ArrayFault{
			{Node: "c", Target: isa.DRAM, Fraction: 0.5, At: 700 * event.Microsecond, Recover: 2 * event.Millisecond},
		},
		Crashes: []fault.Crash{
			{Node: "b", At: event.Millisecond, Recover: 3 * event.Millisecond},
			{Node: "e", At: 2 * event.Millisecond},
			{Node: "g", At: 500 * event.Microsecond, Recover: 6 * event.Millisecond},
			{Node: "g", At: 5 * event.Millisecond, Recover: 7 * event.Millisecond},
		},
		ExecErrorProb: 0.1,
	}
	if err := d.EnableFaults(FaultConfig{Plan: plan, Deadline: 5 * event.Millisecond, Heartbeat: heartbeat}); err != nil {
		panic(err)
	}
	for i := 0; i < 40; i++ {
		if err := d.Submit(mkBatch(i, event.Time(i)*150*event.Microsecond, 3)); err != nil {
			panic(err)
		}
	}
	return d
}

// generatedPlanRun is one of TestChaosConservationGeneratedPlans's
// flat runs: a generated crash/array-fault/exec-error plan.
func generatedPlanRun(workers int, policy string, seed int64) *ShardedDispatcher {
	p, _ := PolicyByName(policy)
	d := NewShardedDispatcher(p, Admission{MaxRetries: 4}, ShardConfig{Workers: workers},
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
		panic(err)
	}
	if err := d.EnableFaults(FaultConfig{Plan: plan, Deadline: 50 * event.Millisecond}); err != nil {
		panic(err)
	}
	for i := 0; i < 20; i++ {
		if err := d.Submit(mkBatch(i, event.Time(i)*300*event.Microsecond, 3)); err != nil {
			panic(err)
		}
	}
	return d
}

// noEdgeFaultRuns are fault-mode runs with node crashes but no fabric
// faults (no edge fault, no hub freeze).
func noEdgeFaultRuns() map[string]livenessFleet {
	runs := map[string]livenessFleet{
		"tree-node-crash":         func(w int) *ShardedDispatcher { return nodeCrashTree(w, 0) },
		"tree-node-crash-hb100us": func(w int) *ShardedDispatcher { return nodeCrashTree(w, 100*event.Microsecond) },
		"tree-node-crash-hb1ms":   func(w int) *ShardedDispatcher { return nodeCrashTree(w, event.Millisecond) },
	}
	for _, p := range PolicyNames() {
		p := p
		runs["chaos-"+p] = func(w int) *ShardedDispatcher {
			pol, _ := PolicyByName(p)
			return chaosFleet(pol, w)
		}
		for seed := int64(1); seed <= 3; seed++ {
			seed := seed
			runs[fmt.Sprintf("generated-%s-%d", p, seed)] = func(w int) *ShardedDispatcher { return generatedPlanRun(w, p, seed) }
		}
	}
	return runs
}

// summaryOnly renders a run as its Summary.
func summaryOnly(d *ShardedDispatcher) string { return d.Run().String() }

// withVerdicts renders a run as its Summary followed by every liveness
// verdict, region by region in each hub's event order.
func withVerdicts(d *ShardedDispatcher) string {
	logs := make([][]string, len(d.regions))
	d.noteLiveness = func(r int, line string) { logs[r] = append(logs[r], line) }
	out := d.Run().String()
	for _, lines := range logs {
		for _, l := range lines {
			out += "\n" + l
		}
	}
	return out
}

// checkGolden renders every run at sim workers 1, 2, 4 and 8, requires
// the four renders to agree, and compares them, run by run in name
// order, with testdata/<file>.
func checkGolden(t *testing.T, file string, runs map[string]livenessFleet, render func(*ShardedDispatcher) string) {
	t.Helper()
	names := make([]string, 0, len(runs))
	for n := range runs {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		want := render(runs[n](1))
		for _, w := range []int{2, 4, 8} {
			if got := render(runs[n](w)); got != want {
				t.Errorf("%s: workers=%d diverges from workers=1:\n%s\nvs\n%s", n, w, got, want)
			}
		}
		fmt.Fprintf(&b, "== %s ==\n%s\n", n, want)
	}
	path := filepath.Join("testdata", file)
	if *updateLiveness {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("renders diverge from %s:\n%s", path, firstDiff(got, string(want)))
	}
}

// firstDiff reports the first differing line of two renders.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got  %q\n want %q", i+1, gl, wl)
		}
	}
	return "(equal)"
}

// TestNoEdgeFaultLivenessGolden pins fault-mode runs without fabric
// faults to testdata/liveness-noedge.golden, captured from the
// message-based ping/pong liveness. Heartbeat coins and same-instant
// pong rules only matter on faulty edges, so computing the heartbeats
// must leave these runs exactly as they were.
func TestNoEdgeFaultLivenessGolden(t *testing.T) {
	checkGolden(t, "liveness-noedge.golden", noEdgeFaultRuns(), summaryOnly)
}

// edgeFaultFlat is a flat 3-node fleet with lossy and delayed edges in
// both directions: hub->node drops, node->hub drops, a node->hub delay
// longer than a heartbeat period stacked on a shorter one, and a
// node->hub delay that lands every pong exactly on the next sweep.
func edgeFaultFlat(workers int) *ShardedDispatcher {
	d := NewShardedDispatcher(NewLeastOutstanding(), Admission{MaxRetries: 4}, ShardConfig{Workers: workers},
		fullNode("a"), fullNode("b"), fullNode("c"))
	hb := DefaultHeartbeat
	plan := &fault.Plan{
		Seed: 31,
		Crashes: []fault.Crash{
			{Node: "c", At: 3 * event.Millisecond, Recover: 5 * event.Millisecond},
		},
		EdgeFaults: []fault.EdgeFault{
			{From: "hub0", To: "a", At: 500 * event.Microsecond, Until: 6 * event.Millisecond, DropProb: 0.5},
			{From: "a", To: "hub0", At: event.Millisecond, Until: 4 * event.Millisecond, DropProb: 0.4, Delay: hb + 50*event.Microsecond},
			{From: "a", To: "hub0", At: 2 * event.Millisecond, Until: 3 * event.Millisecond, Delay: 30 * event.Microsecond},
			{From: "b", To: "hub0", At: event.Millisecond, Until: 5 * event.Millisecond, Delay: hb - 2*DefaultHop},
			{From: "hub0", To: "c", At: 0, Until: 8 * event.Millisecond, Delay: 3 * hb},
		},
		ExecErrorProb: 0.05,
	}
	if err := d.EnableFaults(FaultConfig{Plan: plan, Deadline: 4 * event.Millisecond}); err != nil {
		panic(err)
	}
	for i := 0; i < 36; i++ {
		if err := d.Submit(mkBatch(i, event.Time(i)*200*event.Microsecond, 3)); err != nil {
			panic(err)
		}
	}
	return d
}

// edgeFaultTree is a 2-region tree with a hub freeze and lossy, slow
// hub<->node edges, including edges between a node and the hub that
// adopts it, and delays inside (hop, period) and beyond a period.
func edgeFaultTree(workers int) *ShardedDispatcher {
	plan := &fault.Plan{
		Seed:       41,
		HubCrashes: []fault.HubCrash{{Region: 1, At: event.Millisecond, Recover: 4 * event.Millisecond}},
		Crashes:    []fault.Crash{{Node: "d", At: 2 * event.Millisecond, Recover: 5 * event.Millisecond}},
		EdgeFaults: []fault.EdgeFault{
			{From: "hub0", To: "a", DropProb: 0.3},
			{From: "b", To: "hub0", At: 500 * event.Microsecond, DropProb: 0.6, Delay: 230 * event.Microsecond},
			{From: "hub0", To: "c", At: 2 * event.Millisecond, Until: 5 * event.Millisecond, DropProb: 0.5},
			{From: "c", To: "hub0", At: 2 * event.Millisecond, Until: 6 * event.Millisecond, Delay: 600 * event.Microsecond},
			{From: "d", To: "hub1", DropProb: 0.25},
			{From: "hub1", To: "d", Delay: 100 * event.Microsecond},
		},
	}
	d, _ := fabricTree(NewLeastOutstanding(), workers, plan)
	return d
}

// miniFleetChaos is the fleet-chaos benchmark's topology and fault plan
// (64 nodes under 32 hubs, hub 3 frozen, a lossy hub10->node21 edge)
// with two waves of app batches instead of sixteen.
func miniFleetChaos(workers int) *ShardedDispatcher {
	const waves, gap = 2, 60 * event.Millisecond
	at := func(ms int) event.Time { return event.Time(ms) * event.Millisecond * waves / 16 }
	cfgs := make([]NodeConfig, 64)
	for i := range cfgs {
		cfgs[i] = NodeConfig{Name: fmt.Sprintf("node%d", i), Targets: isa.Targets, Packing: sched.PackWeightedFair}
	}
	d := NewShardedDispatcher(NewLeastOutstanding(), Admission{MaxRetries: 6},
		ShardConfig{Workers: workers, Hubs: 32}, cfgs...)
	plan := &fault.Plan{
		Seed:       7,
		HubCrashes: []fault.HubCrash{{Region: 3, At: at(300), Recover: at(900)}},
		EdgeFaults: []fault.EdgeFault{{From: "hub10", To: "node21", At: at(200), Until: at(1500), DropProb: 0.3}},
	}
	if err := d.EnableFaults(FaultConfig{Plan: plan, Deadline: 400 * event.Millisecond}); err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(5))
	id := 0
	for w := 0; w < waves; w++ {
		for i := 0; i < 64; i++ {
			jobs := workload.AssignTenants(workload.RandomJobs(rng, 6, id*6), 4)
			if err := d.Submit(&runtime.Batch{ID: id, Arrival: event.Time(w) * gap, Jobs: jobs}); err != nil {
				panic(err)
			}
			id++
		}
	}
	return d
}

// livenessRuns is every fault-mode configuration the liveness golden
// pins: the runs without fabric faults, the hub-tree fabric-fault tests'
// plans, lossy and delayed hub<->node edges on the flat and tree
// fabrics, and the fleet-chaos plan.
func livenessRuns() map[string]livenessFleet {
	runs := noEdgeFaultRuns()
	fabric := map[string]*fault.Plan{
		"tree-hub-crash":      hubCrashPlan(),
		"tree-relay-failover": {Seed: 5, HubCrashes: []fault.HubCrash{{Region: 0, At: event.Millisecond, Recover: 4 * event.Millisecond}}},
		"tree-beacon-loss":    {Seed: 11, EdgeFaults: []fault.EdgeFault{{From: "hub1", To: "hub0", DropProb: 1}}},
		"tree-split-brain": {Seed: 17, EdgeFaults: fault.PartitionEdges(
			[]string{"hub0"}, []string{"hub1"}, event.Millisecond, 4*event.Millisecond)},
	}
	for name, plan := range fabric {
		plan := plan
		runs[name] = func(w int) *ShardedDispatcher {
			d, _ := fabricTree(NewRoundRobin(), w, plan)
			return d
		}
	}
	runs["edge-faults-flat"] = edgeFaultFlat
	runs["edge-faults-tree"] = edgeFaultTree
	runs["fleet-chaos-2waves"] = miniFleetChaos
	return runs
}

// TestLivenessGolden pins every liveness verdict — detections with
// their evictions, rejoins, takeovers, revival sweeps — and the Summary
// of each fault-mode configuration in livenessRuns to
// testdata/liveness.golden at sim workers 1, 2, 4 and 8. The golden was
// captured from message-based ping/pong liveness with each heartbeat's
// own drop coin; the computed heartbeats must reproduce it byte for
// byte.
func TestLivenessGolden(t *testing.T) {
	checkGolden(t, "liveness.golden", livenessRuns(), withVerdicts)
}

// TestSweepRunsLastAtItsInstant pins the liveness sweep's tie rule: it
// runs after every other hub event at its instant. One node crashes for
// good at 1 ms and a batch arrives at 1.65 ms, so its 100 µs deadline
// lapses at 1.75 ms, the instant the sweep declares the node dead. The
// deadline runs first: it times the booking out and, with no other
// node, books the same node again; the sweep then evicts that booking
// and re-dispatches it a second time.
func TestSweepRunsLastAtItsInstant(t *testing.T) {
	run := func(workers int) (Summary, []string) {
		d := NewShardedDispatcher(NewLeastOutstanding(), Admission{MaxRetries: 4},
			ShardConfig{Workers: workers}, fullNode("a"))
		plan := &fault.Plan{Seed: 1, Crashes: []fault.Crash{{Node: "a", At: event.Millisecond}}}
		if err := d.EnableFaults(FaultConfig{Plan: plan, Deadline: 100 * event.Microsecond}); err != nil {
			t.Fatal(err)
		}
		if err := d.Submit(mkBatch(0, 1650*event.Microsecond, 3)); err != nil {
			t.Fatal(err)
		}
		var verdicts []string
		d.noteLiveness = func(_ int, line string) { verdicts = append(verdicts, line) }
		return d.Run(), verdicts
	}
	s, verdicts := run(1)
	conserved(t, s)
	if s.Timeouts != 1 || s.Redispatches != 2 {
		t.Errorf("timeouts=%d redispatch=%d, want 1 and 2: the deadline at the sweep's instant runs before it",
			s.Timeouts, s.Redispatches)
	}
	const dead = "1750000000 hub0 dead a silent=960000000 evict=[0]"
	if len(verdicts) == 0 || verdicts[0] != dead {
		t.Errorf("verdicts = %q, want %q first", verdicts, dead)
	}
	for _, w := range []int{2, 4, 8} {
		ws, wv := run(w)
		if ws.String() != s.String() || strings.Join(wv, "\n") != strings.Join(verdicts, "\n") {
			t.Errorf("workers=%d diverges from workers=1:\n%s%q\nvs\n%s%q", w, ws, wv, s, verdicts)
		}
	}
}

// TestForwardWakesStoppedLiveness: a region whose liveness chain has
// stopped restarts it when a forwarded batch reaches it. Region 1's
// only batch finishes early, so its chain stops at the first sweep
// (250 µs). At 1 ms region 0's one node is full (QueueCap 1), and
// region 0 forwards a batch to region 1; its node b crashes 1 µs after
// that batch starts, and stays down until 20 ms. With no deadline and no
// retries, only a sweep can free the batch: hub1 declares b dead at
// 2 ms and sheds the batch. A chain that stayed stopped would leave it
// stranded until b revives (and, with b down for good, Run would never
// return).
func TestForwardWakesStoppedLiveness(t *testing.T) {
	run := func(workers int) (Summary, []string) {
		d := NewShardedDispatcher(NewLeastOutstanding(), Admission{QueueCap: 1},
			ShardConfig{Workers: workers, Hubs: 2}, fullNode("a"), fullNode("b"))
		plan := &fault.Plan{Seed: 1, Crashes: []fault.Crash{
			{Node: "b", At: 1041 * event.Microsecond, Recover: 20 * event.Millisecond},
		}}
		if err := d.EnableFaults(FaultConfig{Plan: plan}); err != nil {
			t.Fatal(err)
		}
		// Submission order sprays regions 0, 1, 0: a long batch keeps node
		// a busy past 1 ms, region 1 gets one short batch at 0, and the
		// batch at 1 ms finds region 0 full.
		long := mkBatch(0, 900*event.Microsecond, 1)
		long.Jobs[0] = mkJob(0, 50_000_000)
		for _, b := range []*runtime.Batch{long, mkBatch(1, 0, 3), mkBatch(2, event.Millisecond, 3)} {
			if err := d.Submit(b); err != nil {
				t.Fatal(err)
			}
		}
		var log []string
		d.noteLiveness = func(_ int, line string) { log = append(log, line) }
		d.OnDone(func(di DoneInfo) {
			log = append(log, fmt.Sprintf("%d batch %d %v", di.At, di.Batch.ID, di.Outcome))
		})
		return d.Run(), log
	}
	s, log := run(1)
	conserved(t, s)
	if s.Completed != 2 || s.Shed != 1 {
		t.Errorf("completed=%d shed=%d, want 2 and the forwarded batch shed", s.Completed, s.Shed)
	}
	const dead = "2000000000 hub1 dead b silent=960000000 evict=[2]"
	if !slices.Contains(log, dead) {
		t.Errorf("log = %q, want %q", log, dead)
	}
	if want := fmt.Sprintf("%d batch 2 %v", 2*event.Millisecond, OutcomeShed); !slices.Contains(log, want) {
		t.Errorf("log = %q, want %q: the batch settles before b revives", log, want)
	}
	for _, w := range []int{2, 4, 8} {
		ws, wl := run(w)
		if ws.String() != s.String() || strings.Join(wl, "\n") != strings.Join(log, "\n") {
			t.Errorf("workers=%d diverges from workers=1:\n%s%q\nvs\n%s%q", w, ws, wl, s, log)
		}
	}
}

// TestRevivedHubAdoptsNothing: when one of two hubs freezes past the
// suspicion limit, only its ring successor adopts it; the revived hub
// comes back with fresh suspicion clocks and adopts nothing, though its
// frozen handlers lost every beacon the freeze spanned.
func TestRevivedHubAdoptsNothing(t *testing.T) {
	d, _ := fabricTree(NewRoundRobin(), 2, hubCrashPlan())
	s := d.Run()
	conserved(t, s)
	if s.Takeovers != 1 {
		t.Errorf("takeovers = %d, want 1 (the frozen hub's successor only)", s.Takeovers)
	}
	if r := d.regions[1]; r.takeovers != 0 || len(r.views) != r.homeN {
		t.Errorf("revived region 1 adopted %d regions (%d views over %d home nodes)",
			r.takeovers, len(r.views), r.homeN)
	}
	if r := d.regions[0]; r.takeovers != 1 || !r.adopted[1] {
		t.Errorf("successor region 0: takeovers=%d adopted=%v, want region 1 adopted", r.takeovers, r.adopted)
	}
}

// TestIdleHubNotAdopted: in fabric-fault mode a hub that runs out of
// work stops beaconing, while its ring successor, still busy, keeps
// watching it. The idle hub's last beacon says it went idle, so the
// silence after it is not read as death: nothing is adopted.
func TestIdleHubNotAdopted(t *testing.T) {
	d := NewShardedDispatcher(NewRoundRobin(), Admission{MaxRetries: 6},
		ShardConfig{Workers: 2, Hubs: 2, SummaryEvery: 500 * event.Microsecond},
		fullNode("a"), fullNode("b"), fullNode("c"), fullNode("d"))
	// A short delay-only edge fault switches the fabric into fault mode
	// and stretches both horizons only to about 3 ms.
	plan := &fault.Plan{Seed: 9, EdgeFaults: []fault.EdgeFault{
		{From: "hub0", To: "a", Until: event.Millisecond, Delay: 10 * event.Microsecond},
	}}
	if err := d.EnableFaults(FaultConfig{Plan: plan, Deadline: 5 * event.Millisecond}); err != nil {
		t.Fatal(err)
	}
	// Submissions alternate between the regions: region 0's batches all
	// arrive in the first millisecond, region 1's keep arriving to 9 ms.
	for i := 0; i < 10; i++ {
		for _, b := range []*runtime.Batch{
			mkBatch(2*i, event.Time(i)*100*event.Microsecond, 2),
			mkBatch(2*i+1, event.Time(i)*event.Millisecond, 2),
		} {
			if err := d.Submit(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	idleFrom, busyUntil := d.regions[0].lastArrival, d.regions[1].lastArrival
	s := d.Run()
	conserved(t, s)
	if busyUntil-idleFrom <= 2*d.suspLimit {
		t.Fatalf("region 1 works until %v, not long past region 0's horizon %v plus the suspicion limit %v",
			busyUntil, idleFrom, d.suspLimit)
	}
	if s.Takeovers != 0 {
		t.Errorf("takeovers = %d, want 0: no hub froze, one only went idle", s.Takeovers)
	}
}

// TestLivenessEventsFlatInIdlePeriods: liveness costs no event in a
// period in which no verdict changes. Two fault-mode tree runs differ
// only in how far their horizon is extended past the last completion,
// 40 or 400 heartbeat periods; with a crash and a lossy edge early on,
// verdicts still change during the work. Over the idle stretch each of
// the two hubs still runs its beacon ticks, and with an edge fault in
// the plan every tick sends its ring neighbour a beacon. So the runs'
// windows may differ by two per tick (the ticks, then the beacons'
// delivery) and the hubs' fired events by two per tick per hub, and by
// nothing per heartbeat period.
func TestLivenessEventsFlatInIdlePeriods(t *testing.T) {
	const se = 2 * event.Millisecond
	run := func(idle int) (windows int, fired uint64) {
		d := NewShardedDispatcher(NewLeastOutstanding(), Admission{MaxRetries: 4},
			ShardConfig{Workers: 2, Hubs: 2, SummaryEvery: se},
			fullNode("a"), fullNode("b"), fullNode("c"), fullNode("d"))
		plan := &fault.Plan{
			Seed:       3,
			Crashes:    []fault.Crash{{Node: "b", At: event.Millisecond, Recover: 3 * event.Millisecond}},
			EdgeFaults: []fault.EdgeFault{{From: "hub1", To: "c", At: 0, Until: 4 * event.Millisecond, DropProb: 0.5}},
		}
		if err := d.EnableFaults(FaultConfig{Plan: plan, Deadline: 5 * event.Millisecond}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 16; i++ {
			if err := d.Submit(mkBatch(i, event.Time(i)*250*event.Microsecond, 3)); err != nil {
				t.Fatal(err)
			}
		}
		// The plan and the batches are done well before 30 ms.
		d.ExtendHorizon(30*event.Millisecond + event.Time(idle)*DefaultHeartbeat)
		s := d.Run()
		conserved(t, s)
		if s.Makespan >= 30*event.Millisecond {
			t.Fatalf("makespan %v reaches the idle stretch", s.Makespan)
		}
		for _, r := range d.regions {
			fired += r.hub.Engine().Fired()
		}
		return d.WindowStats().Windows, fired
	}
	w40, f40 := run(40)
	w400, f400 := run(400)
	ticks := int((400-40)*DefaultHeartbeat/se) + 1 // beacon ticks per hub in the extra idle stretch
	if extra := w400 - w40; extra < 0 || extra > 2*ticks {
		t.Errorf("windows %d -> %d over 360 more idle heartbeat periods, want at most %d more (beacon ticks)",
			w40, w400, 2*ticks)
	}
	if extra := int(f400) - int(f40); extra > 2*2*ticks {
		t.Errorf("hub events %d -> %d over 360 more idle heartbeat periods, want at most %d more (beacon ticks)",
			f40, f400, 2*2*ticks)
	}
}
