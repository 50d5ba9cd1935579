// Package cluster lifts the single-node serving runtime into a
// multi-node MLIMP serving fabric: N nodes — possibly heterogeneous in
// layer mix and capacity — each run a runtime batch executor on its own
// event-engine shard, fronted by a hub tree of one or more dispatch
// regions with pluggable load-balancing policies and admission control
// (bounded per-node queues with shed-on-overflow and optional bounded
// retry in simulated time). The paper schedules jobs across the
// computable-memory layers of one node; this package schedules batches
// across many such nodes, the shape a production deployment takes once
// a single node saturates (PyGim parallelises GNN work across
// independent PIM devices the same way).
package cluster

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"mlimp/internal/event"
	"mlimp/internal/isa"
	"mlimp/internal/runtime"
	"mlimp/internal/sched"
)

// NodeConfig describes one MLIMP node of the fleet.
type NodeConfig struct {
	Name    string
	Targets []isa.Target // computable-memory layer mix
	// Scale multiplies each layer's array capacity (0 means 1.0), so a
	// fleet can mix full-size and cut-down nodes of the same layer mix.
	Scale float64
	// Scheduler is the node's batch scheduler; nil means the global
	// scheduler (Algorithm 2), the paper's best.
	Scheduler sched.Scheduler
	// Packing selects the node's multi-tenant array packing policy
	// (zero value: first-fit, the single-pool behaviour).
	Packing sched.Packing
	// Replication selects the node's standing-replica policy (zero
	// value: off). Under when-idle each node's scheduler may pin spare
	// arrays as bottleneck-stage replicas; the dispatcher's cost
	// estimates run against per-node view systems built from this same
	// config, so estimate and execution see the same policy.
	Replication sched.ReplicationPolicy
}

// Node is one MLIMP system wrapped in a runtime executor plus the
// occupancy bookkeeping the dispatcher's policies read. The dispatcher
// routes against views (see newView): nodes without a runtime that
// carry the booking ledger.
type Node struct {
	Name string
	Sys  *sched.System

	rt        *runtime.Runtime
	queued    int                // outstanding bookings (views only)
	busy      event.Time         // sum of batch execution spans
	predicted event.Time         // sum of cost estimates of outstanding batches
	estimates map[int]event.Time // batch ID -> estimate while outstanding
	runningID int                // batch executing now, -1 when idle
	runStart  event.Time         // when it started
	estSched  sched.Scheduler    // stateless planner backing EstimateCost

	// est memoizes EstimateCost per batch key (see estCache). One
	// admission costs at least two identical estimates (the policy's
	// Pick plus the hub-side booking), every retry of a shed-bound
	// arrival re-estimates the same batch against the same nodes, and
	// batches of the same job shapes plan identically; the planning pass
	// behind each estimate is a full Algorithm-2 schedule, by far the
	// dispatcher's hottest computation. Estimates assume an idle node;
	// the system is fixed after construction except for fault
	// degradation, which invalidates the cache (see degrade/restore),
	// and standing replicas, which key batches by job identity.
	est estCache

	// Failure state (see fault.go). The node shard holds the ground
	// truth (crash flag, lost arrays); the hub's view holds the belief
	// (monitor verdict, last heartbeat and the ones still in flight,
	// failures, circuit breaker).
	down         bool
	detectedDown bool
	lastBeat     event.Time
	beats        []event.Time // heartbeat arrivals not yet folded into lastBeat
	failures     int          // exec errors + deadline timeouts attributed here
	crashes      int
	breaker      *breaker
}

// Health is a node's condition as the fabric sees it.
type Health int

const (
	// Healthy nodes have full capacity and a closed breaker.
	Healthy Health = iota
	// Degraded nodes serve with lost arrays or a tripped breaker.
	Degraded
	// DownHealth nodes are crashed or declared dead by the monitor.
	DownHealth
)

// String renders the health state.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	}
	return "down"
}

// ArraysLost returns the arrays currently lost to injected faults.
func (n *Node) ArraysLost() int { return n.Sys.LostTotal() }

// crash halts the node at the current instant: the executing batch
// loses its work and nothing further starts until revive. Work already
// admitted strands here until the hub's monitor declares the node dead
// and evicts it.
func (n *Node) crash() {
	if n.down {
		return
	}
	n.down = true
	n.crashes++
	n.runningID = -1
	n.rt.Halt()
}

// revive restarts a crashed node; it answers heartbeats again
// immediately.
func (n *Node) revive() {
	if !n.down {
		return
	}
	n.down = false
	n.rt.Resume()
}

// degrade removes arrays from one layer (flooring at one array) and
// invalidates the estimate cache: stale idle-node estimates against the
// healthy capacity would misroute every later admission.
func (n *Node) degrade(t isa.Target, arrays int) {
	if n.Sys.Degrade(t, arrays) > 0 {
		n.est.reset()
	}
}

// restore returns previously lost arrays to a layer.
func (n *Node) restore(t isa.Target, arrays int) {
	if n.Sys.Restore(t, arrays) > 0 {
		n.est.reset()
	}
}

// abandon releases the booking of a batch that will not complete here
// (evicted from a dead node or aborted on deadline), so PredictedDrain
// and the policies stop charging this node for it.
func (n *Node) abandon(id int) {
	if est, ok := n.estimates[id]; ok {
		n.predicted -= est
		delete(n.estimates, id)
	}
	if n.runningID == id {
		n.runningID = -1
	}
}

// newSystemFor builds a node's scheduling system from its config:
// the layer mix, optionally rescaled.
func newSystemFor(cfg NodeConfig) *sched.System {
	if len(cfg.Targets) == 0 {
		panic("cluster: node needs at least one layer")
	}
	sys := sched.NewSystem(cfg.Targets...)
	if cfg.Scale > 0 && cfg.Scale != 1 {
		for _, t := range sys.Targets() {
			l := sys.Layers[t]
			if c := int(float64(l.Capacity()) * cfg.Scale); c >= 1 {
				l.SetCapacity(c)
			} else {
				l.SetCapacity(1)
			}
		}
	}
	sys.Packing = cfg.Packing
	sys.Replication = cfg.Replication
	return sys
}

// NewNode builds a node executing on the given engine (its shard's).
func NewNode(eng *event.Engine, cfg NodeConfig) *Node {
	n := newView(cfg)
	scheduler := cfg.Scheduler
	if scheduler == nil {
		scheduler = sched.NewGlobal()
	}
	rt, err := runtime.NewOn(eng, n.Sys, scheduler)
	if err != nil {
		panic("cluster: " + err.Error()) // all three are non-nil above
	}
	n.rt = rt
	return n
}

// newView builds a dispatcher-side proxy of a node: the same scheduling
// system (so cost estimates agree with the real node) but no runtime.
// The dispatcher routes against views — mirrors of remote node state it
// may legally read at hub time — and the policies cannot tell a view
// from a live node.
func newView(cfg NodeConfig) *Node {
	name := cfg.Name
	if name == "" {
		name = fmt.Sprintf("node-%v", cfg.Targets)
	}
	return &Node{
		Name:      name,
		Sys:       newSystemFor(cfg),
		estimates: map[int]event.Time{},
		runningID: -1,
		estSched:  sched.NewGlobal(),
	}
}

// Outstanding returns the number of admitted but unfinished batches.
// Views (no runtime) count their bookings instead.
func (n *Node) Outstanding() int {
	if n.rt == nil {
		return n.queued
	}
	return n.rt.Outstanding()
}

// PredictedDrain estimates how long from now the node needs to finish
// everything it has already accepted: the sum of the cost-model
// estimates of its outstanding batches, minus the time the executing
// batch has already spent (clamped to its own estimate, so an
// underestimated batch never drives the drain negative).
func (n *Node) PredictedDrain(now event.Time) event.Time {
	d := n.predicted
	if n.runningID >= 0 {
		elapsed := now - n.runStart
		if est := n.estimates[n.runningID]; elapsed > est {
			elapsed = est
		}
		d -= elapsed
	}
	if d < 0 {
		d = 0
	}
	return d
}

// CanRun reports whether every job of the batch has a cost profile on
// at least one of the node's layers — a node missing the only layer a
// job compiles for must not be offered that batch.
func (n *Node) CanRun(jobs []*sched.Job) bool {
	layers := n.Sys.Mask()
	for _, j := range jobs {
		if j.Est.Mask()&layers == 0 {
			return false
		}
	}
	return true
}

// EstimateCost predicts the batch's service time on this node by
// planning it with a global scheduler against the node's own system —
// the same Section III-C cost model the node schedules with, reused as
// the dispatcher's crystal ball. The estimate assumes an idle node;
// PredictedDrain accounts for the work ahead of the batch. Unrunnable
// batches estimate to MaxInt64 (CanRun filters them out of admission
// before any policy consults the estimate).
//
// Estimates are memoized per batch key (see estCache), so the repeated
// estimates of one admission — policy comparison, booking, retries —
// and every later batch of the same job shapes, in any job order when
// the batch is tenant-pure, plan against each node once.
func (n *Node) EstimateCost(jobs []*sched.Job) event.Time {
	if !n.CanRun(jobs) {
		return event.Time(math.MaxInt64)
	}
	byID := n.Sys.Replication == sched.ReplicateWhenIdle
	if est, ok := n.est.get(jobs, byID); ok {
		return est
	}
	est := n.estSched.Schedule(n.Sys, jobs).Makespan
	n.est.put(jobs, byID, est)
	return est
}

// EstCacheStats returns the estimate cache's hit and miss counts.
func (n *Node) EstCacheStats() (hits, misses int64) { return n.est.hits, n.est.misses }

// EstCacheClears returns how many times the estimate cache was
// generation-cleared at its bound.
func (n *Node) EstCacheClears() int64 { return n.est.clears }

// MaxEstCacheEntries bounds each node's estimate cache: ID-keyed
// batches (see estCache) never repeat across admissions, so without a
// bound they would grow the cache for the life of a dispatcher. At the
// bound the cache is dropped wholesale, as the scheduler's cost memos
// are. On a view that does not replicate, an entry is a pure function
// of its key, so a clear costs only recomputation. The bound is well
// above the largest per-view count the in-repo experiments and bench
// workloads reach (638 entries, on gnn-serve, whose GNN jobs are
// ID-keyed; app-serve's tenant-pure batches reach 470), so none of them
// clears.
const MaxEstCacheEntries = 8192

// estCache is a node's admission-estimate cache. Its key is one tuple
// per job of the batch. Global.Schedule reads only a job's Est,
// TrueTime, Tenant and Stage (Bits rides along for safety), so batches
// whose jobs agree on those fields plan identically and share an entry
// whatever their IDs — every RequestPool job of one Table II app
// carries the same Est. Two cases are not pure functions of job
// content, and add the job's ID and Name to its tuple:
//   - a job with a TrueTime closure, whose ground truth the content
//     does not capture (every GNN job); job IDs identify immutable job
//     objects for the lifetime of a dispatcher, so callers that recycle
//     IDs across different ground truths would alias entries — don't;
//   - every job on a ReplicateWhenIdle view, whose EnsureReplicas
//     changes the System between calls.
//
// The tuples of a tenant-pure batch (no ID-keyed job, one Tenant for
// all jobs, the empty tenant included) are keyed in a canonical order,
// sorted by tuple hash, so every permutation of the batch shares one
// entry. Every other batch keeps batch order. The split follows the
// planner. A tenant-pure batch plans in one shared array pool, and no
// permutation of one has been seen to move its makespan (see
// TestEstimateCacheOrderFreeTenantPure). Under partitioned or
// weighted-fair packing, a mixed-tenant batch gets one region per
// tenant, carved in order of first appearance (sched's newSim), so
// reordering it can hand another tenant the lowest array IDs and move
// the makespan. A key's tuples show which rule built it (one tenant or
// several, ID-keyed or not), so an ordered key never matches a
// canonical query or the reverse.
//
// Entries sit under a 64-bit hash of the key and keep the full key, as
// tuple numbers: each distinct tuple is stored once, in tuples. A
// lookup hits only when the stored key equals the query, so a hash
// collision costs one replan and an overwrite. At MaxEstCacheEntries
// entries the cache is generation-cleared.
type estCache struct {
	entries map[uint64]estEntry
	tuples  []estJob          // distinct job tuples, numbered by position
	tupleOf map[uint64]uint32 // tuple hash -> tuple number
	query   []keyJob          // the last query's jobs, in key order

	hits, misses, clears int64
}

// estEntry is one cached estimate and the key it was computed for.
type estEntry struct {
	key []uint32 // tuple numbers, in key order
	v   event.Time
}

// keyJob is one job of a query: its position in the batch and its
// tuple hash.
type keyJob struct {
	pos  int
	hash uint64
}

// estJob is one job's tuple. It holds the job's Est table by pointer
// and compares it by content; tables are read-only once a job is built.
type estJob struct {
	est           *sched.Estimates
	tenant, stage string
	bits          int
	byID          bool
	id            int
	name          string
}

// idKeyed reports whether job j's tuple carries its identity.
func idKeyed(j *sched.Job, byID bool) bool { return byID || j.TrueTime != nil }

// orderFree reports whether the batch is tenant-pure: no job is
// ID-keyed and every job shares the first job's tenant.
func orderFree(jobs []*sched.Job, byID bool) bool {
	for _, j := range jobs {
		if idKeyed(j, byID) || j.Tenant != jobs[0].Tenant {
			return false
		}
	}
	return true
}

// jobHash mixes every field of job j's tuple into 64 bits.
func jobHash(j *sched.Job, byID bool) uint64 {
	h := j.Est.Hash(0)
	h = hashString(h, j.Tenant)
	h = hashString(h, j.Stage)
	h = sched.Mix(h, uint64(j.Bits))
	if idKeyed(j, byID) {
		h = sched.Mix(h, uint64(j.ID))
		h = hashString(h, j.Name)
	}
	return h
}

// hashString folds s into h, its length first so adjacent strings
// cannot trade bytes.
func hashString(h uint64, s string) uint64 {
	h = sched.Mix(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h = sched.Mix(h, uint64(s[i]))
	}
	return h
}

// matches reports whether k is job j's tuple.
func (k *estJob) matches(j *sched.Job, byID bool) bool {
	if k.est != j.Est && (k.est == nil || j.Est == nil || *k.est != *j.Est) {
		return false
	}
	if k.tenant != j.Tenant || k.stage != j.Stage || k.bits != j.Bits {
		return false
	}
	by := idKeyed(j, byID)
	return k.byID == by && (!by || k.id == j.ID && k.name == j.Name)
}

// batchHash hashes the batch's key, leaving its jobs in c.query in key
// order: batch order, sorted by tuple hash when the batch is
// tenant-pure (ties keep batch order).
func (c *estCache) batchHash(jobs []*sched.Job, byID bool) uint64 {
	c.query = c.query[:0]
	for i, j := range jobs {
		c.query = append(c.query, keyJob{pos: i, hash: jobHash(j, byID)})
	}
	if orderFree(jobs, byID) {
		slices.SortStableFunc(c.query, func(a, b keyJob) int { return cmp.Compare(a.hash, b.hash) })
	}
	h := uint64(len(jobs))
	for _, q := range c.query {
		h = sched.Mix(h, q.hash)
	}
	return h
}

// get returns the cached estimate of the batch, counting the hit or
// miss.
func (c *estCache) get(jobs []*sched.Job, byID bool) (event.Time, bool) {
	e, ok := c.entries[c.batchHash(jobs, byID)]
	ok = ok && len(e.key) == len(jobs)
	for i := 0; ok && i < len(jobs); i++ {
		ok = c.tuples[e.key[i]].matches(jobs[c.query[i].pos], byID)
	}
	if !ok {
		c.misses++
		return 0, false
	}
	c.hits++
	return e.v, true
}

// put caches the estimate of the batch.
func (c *estCache) put(jobs []*sched.Job, byID bool, v event.Time) {
	h := c.batchHash(jobs, byID)
	if _, taken := c.entries[h]; !taken && len(c.entries) >= MaxEstCacheEntries {
		c.reset()
		c.clears++
	}
	if c.entries == nil {
		c.entries = map[uint64]estEntry{}
		c.tupleOf = map[uint64]uint32{}
	}
	key := make([]uint32, len(jobs))
	for i, q := range c.query {
		j, jh := jobs[q.pos], q.hash
		k, ok := c.tupleOf[jh]
		if !ok || !c.tuples[k].matches(j, byID) {
			k = uint32(len(c.tuples))
			c.tuples = append(c.tuples, estJob{est: j.Est, tenant: j.Tenant, stage: j.Stage, bits: j.Bits})
			if idKeyed(j, byID) {
				c.tuples[k].byID, c.tuples[k].id, c.tuples[k].name = true, j.ID, j.Name
			}
			c.tupleOf[jh] = k
		}
		key[i] = k
	}
	c.entries[h] = estEntry{key: key, v: v}
}

// reset drops every entry and tuple.
func (c *estCache) reset() {
	clear(c.entries)
	clear(c.tupleOf)
	c.tuples = c.tuples[:0]
}
