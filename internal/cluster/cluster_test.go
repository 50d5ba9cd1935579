package cluster

import (
	"math/rand"
	"strings"
	"testing"

	"mlimp/internal/event"
	"mlimp/internal/isa"
	"mlimp/internal/runtime"
	"mlimp/internal/sched"
	"mlimp/internal/workload"
)

// mkJob builds a job whose UnitCycles are identical on every target, so
// a node's speed is set purely by its layer mix (2.5 GHz SRAM vs 20 MHz
// ReRAM) — the heterogeneity knob the policy tests lean on.
func mkJob(id int, cycles int64, targets ...isa.Target) *sched.Job {
	if len(targets) == 0 {
		targets = isa.Targets
	}
	var est sched.Estimates
	for _, t := range targets {
		est.Set(t, sched.Profile{
			UnitCycles: cycles, RepUnit: 8, LoadBytes: 1 << 14, Beta: sched.DefaultBeta,
		})
	}
	return &sched.Job{ID: id, Name: "cl", Kind: "cl", Est: &est}
}

func mkBatch(id int, at event.Time, n int, targets ...isa.Target) *runtime.Batch {
	jobs := make([]*sched.Job, n)
	for i := range jobs {
		jobs[i] = mkJob(id*100+i, 200_000, targets...)
	}
	return &runtime.Batch{ID: id, Arrival: at, Jobs: jobs}
}

// withTenant tags a batch and each of its jobs with tenant, as batch
// builders must before Submit (a submitted batch is immutable).
func withTenant(b *runtime.Batch, tenant string) *runtime.Batch {
	b.Tenant = tenant
	for _, j := range b.Jobs {
		j.Tenant = tenant
	}
	return b
}

func fullNode(name string) NodeConfig { return NodeConfig{Name: name, Targets: isa.Targets} }

func TestRoundRobinSpreadsEvenly(t *testing.T) {
	d := NewShardedDispatcher(NewRoundRobin(), Admission{}, ShardConfig{}, fullNode("a"), fullNode("b"))
	// Sparse arrivals: every node is always eligible, so the rotation is
	// exact.
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

func TestLeastOutstandingPrefersIdleNode(t *testing.T) {
	d := NewShardedDispatcher(NewLeastOutstanding(), Admission{}, ShardConfig{}, fullNode("a"), fullNode("b"))
	// A burst at t=0: batches must alternate between the nodes rather
	// than pile onto the first.
	for i := 0; i < 4; i++ {
		d.Submit(mkBatch(i, 0, 4))
	}
	s := d.Run()
	for _, ns := range s.Nodes {
		if ns.Batches != 2 {
			t.Errorf("node %s served %d batches, want 2", ns.Name, ns.Batches)
		}
	}
}

// slowFleet is a 2-node fleet where node "slow" only has the 20 MHz
// ReRAM layer — two orders of magnitude slower on the same cycles.
func slowFleet(p Policy, adm Admission) *ShardedDispatcher {
	return NewShardedDispatcher(p, adm, ShardConfig{},
		NodeConfig{Name: "fast", Targets: []isa.Target{isa.SRAM}},
		NodeConfig{Name: "slow", Targets: []isa.Target{isa.ReRAM}},
	)
}

func TestPredictedCostAvoidsSlowNode(t *testing.T) {
	d := slowFleet(NewPredictedCost(), Admission{})
	for i := 0; i < 8; i++ {
		d.Submit(mkBatch(i, event.Time(i)*event.Microsecond, 4))
	}
	s := d.Run()
	if s.Nodes[0].Batches <= s.Nodes[1].Batches {
		t.Errorf("predicted-cost sent %d/%d batches to the fast/slow node",
			s.Nodes[0].Batches, s.Nodes[1].Batches)
	}
}

// TestPredictedCostBeatsRoundRobin is the tentpole acceptance check: on
// the same heterogeneous fleet, workload, and seed, the predicted-cost
// policy's P99 latency must not exceed roundrobin's.
func TestPredictedCostBeatsRoundRobin(t *testing.T) {
	run := func(p Policy) Summary {
		rng := rand.New(rand.NewSource(7))
		d := NewShardedDispatcher(p, Admission{}, ShardConfig{},
			NodeConfig{Name: "full", Targets: isa.Targets},
			NodeConfig{Name: "sram-dram", Targets: []isa.Target{isa.SRAM, isa.DRAM}},
			NodeConfig{Name: "dram-reram", Targets: []isa.Target{isa.DRAM, isa.ReRAM}},
			NodeConfig{Name: "reram", Targets: []isa.Target{isa.ReRAM}},
		)
		arrivals := PoissonArrivals(rng, 24, 4*event.Millisecond)
		for i, at := range arrivals {
			d.Submit(&runtime.Batch{ID: i, Arrival: at, Jobs: workload.RandomJobs(rng, 3, i*100)})
		}
		return d.Run()
	}
	rr := run(NewRoundRobin())
	pc := run(NewPredictedCost())
	if pc.P99LatMs > rr.P99LatMs {
		t.Errorf("predicted-cost p99 %.3fms > roundrobin p99 %.3fms", pc.P99LatMs, rr.P99LatMs)
	}
	if pc.Completed+pc.Shed != pc.Submitted || rr.Completed+rr.Shed != rr.Submitted {
		t.Errorf("batch accounting broken: pc=%+v rr=%+v", pc, rr)
	}
}

func TestAdmissionShedsOnOverflow(t *testing.T) {
	d := slowFleet(NewRoundRobin(), Admission{QueueCap: 1})
	// 8 simultaneous arrivals into 2 nodes with one slot each: 6 shed.
	for i := 0; i < 8; i++ {
		d.Submit(mkBatch(i, 0, 4))
	}
	s := d.Run()
	if s.Shed != 6 || s.Completed != 2 {
		t.Errorf("shed=%d completed=%d, want 6/2", s.Shed, s.Completed)
	}
}

func TestAdmissionRetriesRecoverSheddableLoad(t *testing.T) {
	mk := func(adm Admission) Summary {
		d := NewShardedDispatcher(NewLeastOutstanding(), adm, ShardConfig{},
			NodeConfig{Name: "a", Targets: []isa.Target{isa.SRAM}})
		for i := 0; i < 4; i++ {
			d.Submit(mkBatch(i, 0, 2))
		}
		return d.Run()
	}
	noRetry := mk(Admission{QueueCap: 1})
	withRetry := mk(Admission{QueueCap: 1, MaxRetries: 20, Backoff: 100 * event.Microsecond})
	if noRetry.Shed != 3 {
		t.Errorf("no-retry shed = %d, want 3", noRetry.Shed)
	}
	if withRetry.Retries == 0 || withRetry.Completed <= noRetry.Completed {
		t.Errorf("retries did not recover load: %+v", withRetry)
	}
}

func TestUnrunnableBatchIsShed(t *testing.T) {
	d := NewShardedDispatcher(NewRoundRobin(), Admission{}, ShardConfig{},
		NodeConfig{Name: "reram-only", Targets: []isa.Target{isa.ReRAM}})
	// The batch only compiles for SRAM: no node can ever run it.
	d.Submit(mkBatch(0, 0, 2, isa.SRAM))
	s := d.Run()
	if s.Shed != 1 || s.Completed != 0 {
		t.Errorf("unrunnable batch: %+v", s)
	}
}

func TestSramOnlyBatchRoutesToSramNode(t *testing.T) {
	d := NewShardedDispatcher(NewRoundRobin(), Admission{}, ShardConfig{},
		NodeConfig{Name: "reram-only", Targets: []isa.Target{isa.ReRAM}},
		NodeConfig{Name: "sram-only", Targets: []isa.Target{isa.SRAM}})
	for i := 0; i < 4; i++ {
		d.Submit(mkBatch(i, event.Time(i)*event.Millisecond, 2, isa.SRAM))
	}
	s := d.Run()
	if s.Nodes[0].Batches != 0 || s.Nodes[1].Batches != 4 {
		t.Errorf("routing ignored CanRun: %+v", s.Nodes)
	}
}

func TestCapacityScale(t *testing.T) {
	eng := &event.Engine{}
	full := NewNode(eng, NodeConfig{Targets: []isa.Target{isa.SRAM}})
	half := NewNode(eng, NodeConfig{Targets: []isa.Target{isa.SRAM}, Scale: 0.5})
	if half.Sys.Layers[isa.SRAM].Capacity()*2 != full.Sys.Layers[isa.SRAM].Capacity() {
		t.Errorf("scale 0.5: %d vs %d arrays",
			half.Sys.Layers[isa.SRAM].Capacity(), full.Sys.Layers[isa.SRAM].Capacity())
	}
	tiny := NewNode(eng, NodeConfig{Targets: []isa.Target{isa.SRAM}, Scale: 1e-9})
	if tiny.Sys.Layers[isa.SRAM].Capacity() != 1 {
		t.Errorf("scale floor broken: %d", tiny.Sys.Layers[isa.SRAM].Capacity())
	}
}

func TestFleetDeterministic(t *testing.T) {
	run := func() string {
		rng := rand.New(rand.NewSource(11))
		d := NewShardedDispatcher(NewPredictedCost(), Admission{QueueCap: 2, MaxRetries: 3}, ShardConfig{},
			fullNode("a"), NodeConfig{Name: "b", Targets: []isa.Target{isa.DRAM, isa.ReRAM}})
		for i, at := range PoissonArrivals(rng, 12, 2*event.Millisecond) {
			d.Submit(&runtime.Batch{ID: i, Arrival: at, Jobs: workload.RandomJobs(rng, 2, i*10)})
		}
		return d.Run().String()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("fleet run not deterministic:\n%s\nvs\n%s", a, b)
	}
}

func TestPoissonArrivals(t *testing.T) {
	a := PoissonArrivals(rand.New(rand.NewSource(3)), 100, event.Millisecond)
	b := PoissonArrivals(rand.New(rand.NewSource(3)), 100, event.Millisecond)
	var mean float64
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("arrivals not deterministic for a fixed seed")
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatal("arrivals not monotone")
		}
	}
	mean = a[len(a)-1].Millis() / float64(len(a))
	if mean < 0.5 || mean > 2 {
		t.Errorf("mean gap %.3fms implausible for 1ms exponential", mean)
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range PolicyNames() {
		p, ok := PolicyByName(name)
		if !ok || p.Name() != name {
			t.Errorf("PolicyByName(%q) = %v, %v", name, p, ok)
		}
	}
	if _, ok := PolicyByName("bogus"); ok {
		t.Error("bogus policy resolved")
	}
}

func TestSummaryString(t *testing.T) {
	d := NewShardedDispatcher(NewRoundRobin(), Admission{}, ShardConfig{}, fullNode("a"))
	d.Submit(mkBatch(0, 0, 2))
	out := d.Run().String()
	for _, want := range []string{"policy=roundrobin", "p99=", "util=", "shed=0"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary render missing %q:\n%s", want, out)
		}
	}
}

func TestPanics(t *testing.T) {
	for i, f := range []func(){
		func() { NewShardedDispatcher(nil, Admission{}, ShardConfig{}, fullNode("a")) },
		func() { NewShardedDispatcher(NewRoundRobin(), Admission{}, ShardConfig{}) },
		func() { NewNode(&event.Engine{}, NodeConfig{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

// TestSubmitErrors: malformed arrivals are rejected with errors, not
// panics — they come from callers, not from bugs in the fabric.
func TestSubmitErrors(t *testing.T) {
	d := NewShardedDispatcher(NewRoundRobin(), Admission{}, ShardConfig{}, fullNode("a"))
	if err := d.Submit(&runtime.Batch{ID: 0}); err == nil {
		t.Error("empty batch accepted")
	}
	if err := d.Submit(nil); err == nil {
		t.Error("nil batch accepted")
	}
	if err := d.Submit(mkBatch(1, 0, 2)); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
	if err := d.Submit(mkBatch(1, 0, 2)); err == nil {
		t.Error("duplicate batch ID accepted")
	}
	s := d.Run()
	if s.Submitted != 1 || s.Completed != 1 {
		t.Errorf("submitted=%d completed=%d, want 1/1", s.Submitted, s.Completed)
	}
}

// TestBackoffClamp: the exponential retry backoff must clamp its shift —
// base<<attempt overflows event.Time into a negative delay around
// attempt 40, which the engine rejects with a panic.
func TestBackoffClamp(t *testing.T) {
	base := DefaultBackoff
	if d := retryDelay(base, 63); d != base<<maxBackoffShift {
		t.Errorf("clamped delay = %v, want %v", d, base<<maxBackoffShift)
	}
	if d := retryDelay(base, 1000); d <= 0 {
		t.Errorf("huge attempt produced non-positive delay %v", d)
	}
	for attempt := 0; attempt <= maxBackoffShift; attempt++ {
		if d := retryDelay(base, attempt); d != base<<attempt {
			t.Errorf("attempt %d: delay = %v, want %v", attempt, d, base<<attempt)
		}
	}
	// Regression: the un-clamped shift is exactly the overflow the old
	// code computed; prove it really is negative and would have crashed.
	if bad := base << 63; bad > 0 {
		t.Error("expected base<<63 to overflow negative")
	}
}
