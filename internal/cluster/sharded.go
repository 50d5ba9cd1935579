package cluster

import (
	"errors"
	"fmt"

	"mlimp/internal/event"
	"mlimp/internal/event/parsim"
	"mlimp/internal/fault"
	"mlimp/internal/runtime"
	"mlimp/internal/sched"
)

// Conservative-parallel fleet serving. ShardedDispatcher runs the fleet
// as a tree of dispatch regions (tree.go): each region is a hub shard
// over a contiguous slice of the nodes, and each node owns a private
// event engine on its own parsim shard. Every cross-shard interaction —
// dispatch, batch start/completion, eviction, abort — travels
// through the driver's mailboxes as a typed message (messages.go) with
// a fixed network-hop latency. The hop is the fabric's minimum
// cross-shard latency and therefore the PDES lookahead: shards advance
// [T, T+hop) windows concurrently, and with a fixed seed the run is
// byte-identical for any worker count (see event/parsim). A flat fleet
// is simply the one-region tree.
//
// A hub never touches live node state. It routes against *views* —
// per-node proxies holding a mirror scheduling system, the booking
// ledger (queued count, cost estimates, predicted drain), the circuit
// breaker, and the liveness belief. Views lag ground truth by up to one
// hop each way, which models exactly what a real cluster's dispatcher
// sees: a picture of every node that is one network round-trip stale.
// Three consequences, all deterministic:
//
//   - liveness is reactive (a heartbeat is a ping and its pong, which
//     the hub computes from the fault plan rather than sends), so the
//     limit allows one round trip of lag on top of the miss budget;
//   - a completion can cross a deadline expiry in flight: the hub
//     counts the timeout and re-dispatches, and the late completion is
//     discarded by its stale booking token — the batch still reaches
//     exactly one terminal state, but the node-side latency log may
//     record an execution the hub refused;
//   - deadlines are armed at the dispatch decision, one hop before the
//     node accepts.
type ShardedDispatcher struct {
	drv          *parsim.Driver
	summaryEvery event.Time
	policy       Policy // the caller's policy (multi-region trees route through clones)
	regions      []*region
	onDone       func(DoneInfo)
	faults       *FaultConfig // nil until EnableFaults
	seen         map[int]bool // fleet-wide Submit/Inject batch-ID dedupe
	spray        int          // round-robin arrival cursor

	// Fabric-fault schedule (multi-region trees only). hubCrashes is the
	// plan's hub freeze windows — static facts every shard may read
	// during the run: the spray, relay failover, and inject re-homing all
	// route against the *planned* liveness of remote hubs, which is what
	// keeps those decisions deterministic without cross-shard reads of
	// live state. suspLimit is the beacon-silence bound after which a
	// ring successor suspects its predecessor: miss*SummaryEvery + 2*hop
	// (the round-trip slack, same shape as node liveness); 0 disables
	// suspicion.
	hubCrashes []fault.HubCrash
	suspLimit  event.Time

	// msg names the fleet's message kinds on drv; roles maps each shard
	// ID to the hub or node running on it, so handlers find their
	// destination and sender (messages.go). Both are fixed before Run.
	msg   messages
	roles []role

	// noteLiveness, when set (by tests, before Run), receives each
	// region's liveness verdicts in that hub's event order: detections
	// with their evictions, rejoins, takeovers and revival sweeps.
	noteLiveness func(region int, line string)
}

// region is one dispatch hub and its nodes. Everything here is hub-shard
// state of this region: only events on its hub touch it.
type region struct {
	fleet  *ShardedDispatcher
	idx    int
	hub    *parsim.Shard
	policy Policy
	adm    Admission
	faults *FaultConfig

	sns      []*shardNode
	views    []*Node
	bookings [][]int // per-view outstanding batch IDs in booking order
	// viewAt[id] is 1 + the index of the view of the node on shard id, 0
	// for shards this region has no view of: echoes name their view by
	// their sender.
	viewAt []int32
	// pick and avoided are dispatch's scratch for the eligible views and
	// the fallback, reused across calls (Pick never retains its slice).
	pick, avoided []*Node
	// homeN is how many of sns/views are this region's own nodes. Region
	// takeover (tree.go) appends adopted ring-neighbour entries past
	// homeN; summaries and Nodes() report home nodes only, so every node
	// is reported exactly once fleet-wide no matter who adopted it.
	homeN int
	cfgs  []NodeConfig // retained for prebuilding adoptee views (tree.go)
	// estimating: the policy carries the UsesEstimates marker, so every
	// dispatch books a cost estimate (a full planning pass) on the hub
	// and nodes report start events for drain tracking. Estimate-blind
	// policies skip both.
	estimating bool

	trk         map[int]*tracker
	pending     int
	lastArrival event.Time
	onDone      func(DoneInfo)

	retries    int
	execErrors int
	timeouts   int
	// tenants is the region's batch ledger, one row per tenant; untenanted
	// batches count under "". Fleet totals are sums over these rows.
	tenants map[string]*tenantCounts

	// Cross-region state (tree.go): beliefs about sibling load, ring
	// neighbours, overflow counters, and the hub-crash and takeover
	// bookkeeping. All of it stays idle in a one-region tree.
	beliefs    []int     // believed outstanding per region; -1 unknown
	peers      []*region // ring neighbours, cached at prepare
	lastBeacon int       // last load value beaconed; -1 before the first
	stolen     int       // batches forwarded away (tests read this)
	taken      int       // batches received by forwarding

	// down marks the hub frozen: lossy inputs (echoes, beacons)
	// are lost, reliable inputs and local routing decisions park and
	// replay in arrival order at revival.
	down   bool
	parked []func()

	// peerLast is the last beacon-receipt instant per region; a ring
	// predecessor silent past suspLimit is suspected, and this region —
	// its ring successor — adopts its nodes. Adoption is sticky for the
	// run: beliefs may heal, but shared routing stays safe because every
	// booking carries its home (sn.homes). peerIdle marks a region whose
	// last beacon said it stopped beaconing for lack of work.
	peerLast []event.Time
	peerIdle []bool
	suspect  []bool
	adopted  []bool
	adoptees map[int][]adoptee // prebuilt per ring predecessor (prepare)

	relays records[DoneInfo] // carries this hub's settles to region 0 (tree.go)

	// Liveness chain (fault.go): lvAt is its next event's instant while
	// lvPending; lvStopped ends it for the run. lvFire is the current
	// epoch's event func. freezes is the hub's freeze plan in run order.
	lvAt      event.Time
	lvPending bool
	lvStopped bool
	lvEpoch   int
	lvFire    func()
	freezes   []outage

	hubCrashes int // freeze windows applied to this hub
	takeovers  int // ring-predecessor regions this hub adopted
	rehomed    int // relays/injections re-homed through or away from this hub
}

// shardNode binds one real node to its shard. tokens and attempts are
// node-shard state: the booking token echoed back in completion
// messages (the hub drops echoes of superseded bookings) and the
// 0-based attempt index the execution-error coin is flipped with.
// homes records, per booked batch, which hub dispatched it — on the
// fault-tolerant hub tree a node can legally hold bookings from two
// hubs at once (its home hub and a ring-successor adopter after a
// takeover, or both sides of a split-brain suspicion), and each
// start/completion echo must route back to the hub that made the
// booking, which finds its view of this node by the echo's sender.
type shardNode struct {
	node     *Node
	shard    *parsim.Shard
	tokens   map[int]int
	attempts map[int]int
	homes    map[int]*region
	// outages is the node's crash plan in run order, fixed before Run:
	// hubs read it to decide whether the node answers a heartbeat.
	outages []outage
	// echoes carries completion echoes to the hubs (node-shard state).
	echoes records[runtime.BatchResult]
}

// DefaultHop is the modelled dispatcher<->node network latency: one
// switch traversal plus NIC processing on a datacenter fabric, ~20µs.
// It is the minimum cross-shard latency of the fleet simulation and
// hence the PDES lookahead. It sits far above the DDR4 line round-trip
// (mainmem.Config.RoundTrip, ~43ns) — the floor a device-level sharding
// would use — and well below DefaultHeartbeat, so liveness detection
// still resolves within a beat period.
const DefaultHop = 20 * event.Microsecond

// DefaultSummaryEvery is the hub-tree beacon period: how often a
// regional sub-hub batches its completion echoes upward and broadcasts
// its load belief to ring neighbours. Sized at a few batch service
// times so beliefs stay fresh relative to the ~10ms-scale work the
// fleet serves, while keeping node shards causally independent for
// dozens of hop-widths at a stretch.
const DefaultSummaryEvery = 5 * event.Millisecond

// Topology validation errors, surfaced verbatim by the CLI -hubs /
// -hub-fanout flags (exit 2 on any of them).
var (
	// ErrBadHubs rejects a non-positive sub-hub count.
	ErrBadHubs = errors.New("cluster: hubs must be at least 1")
	// ErrBadHubFanout rejects a negative nodes-per-hub count (0 means
	// derive it from the hub count).
	ErrBadHubFanout = errors.New("cluster: hub-fanout must be positive (or 0 to derive)")
	// ErrTopologyMismatch rejects hub counts that do not evenly tile the
	// fleet, or an explicit fanout that disagrees with hubs x fanout ==
	// nodes. Regions own contiguous equal slices; ragged trees are not
	// modelled.
	ErrTopologyMismatch = errors.New("cluster: hubs x hub-fanout must exactly tile the fleet")
)

// ValidateTopology checks a (hubs, fanout) pair against a fleet size.
// fanout 0 derives nodes/hubs. Returns the resolved pair.
func ValidateTopology(hubs, fanout, nodes int) (int, int, error) {
	if hubs == 0 {
		hubs = 1
	}
	if hubs < 1 {
		return 0, 0, fmt.Errorf("%w (got %d)", ErrBadHubs, hubs)
	}
	if fanout < 0 {
		return 0, 0, fmt.Errorf("%w (got %d)", ErrBadHubFanout, fanout)
	}
	if hubs > nodes || nodes%hubs != 0 {
		return 0, 0, fmt.Errorf("%w (%d hubs over %d nodes)", ErrTopologyMismatch, hubs, nodes)
	}
	derived := nodes / hubs
	if fanout != 0 && fanout != derived {
		return 0, 0, fmt.Errorf("%w (%d hubs x fanout %d != %d nodes)", ErrTopologyMismatch, hubs, fanout, nodes)
	}
	return hubs, derived, nil
}

// ShardConfig configures the parallel simulation fabric.
type ShardConfig struct {
	// Workers is the number of window workers; <= 1 runs every window
	// serially on the calling goroutine (the -j 1 fallback) while
	// keeping the exact same windowed semantics and event order.
	Workers int
	// Hubs splits the fleet into that many regional sub-hubs, each
	// owning a contiguous equal slice of the nodes and making routing
	// decisions locally (see tree.go). 0 or 1 is the flat single-hub
	// fleet. Hubs must evenly divide the node count.
	Hubs int
	// SummaryEvery is the hub-tree beacon period (belief broadcasts and
	// batched completion echoes). 0 means DefaultSummaryEvery. Ignored
	// by a one-region fleet.
	SummaryEvery event.Time
}

func (sc ShardConfig) summaryEvery() event.Time {
	if sc.SummaryEvery > 0 {
		return sc.SummaryEvery
	}
	return DefaultSummaryEvery
}

// NewShardedDispatcher builds a fleet with one engine shard per node
// plus one hub shard per region, advanced by a parsim driver with the
// given worker count. The result is byte-for-byte equivalent across
// worker counts, including Workers=1. sc.Hubs sets the region count;
// shard order is regions in index order, hub first then its nodes, so
// shard IDs — and with them every canonical merge tie-break — are a
// pure function of the topology. Invalid topologies panic; use
// ValidateTopology for an error-returning precheck.
func NewShardedDispatcher(policy Policy, adm Admission, sc ShardConfig, cfgs ...NodeConfig) *ShardedDispatcher {
	if policy == nil {
		panic("cluster: nil policy")
	}
	if len(cfgs) == 0 {
		panic("cluster: fleet needs at least one node")
	}
	hubs, fanout, err := ValidateTopology(sc.Hubs, 0, len(cfgs))
	if err != nil {
		panic(err.Error())
	}
	d := &ShardedDispatcher{
		drv:          parsim.NewDriver(DefaultHop, sc.Workers),
		summaryEvery: sc.summaryEvery(),
		policy:       policy,
		seen:         map[int]bool{},
	}
	d.registerMessages()
	// Fill in default node names against the whole fleet before any
	// region slicing, so "node7" means the same node at every topology.
	named := make([]NodeConfig, len(cfgs))
	for i, cfg := range cfgs {
		if cfg.Name == "" {
			cfg.Name = fmt.Sprintf("node%d", i)
		}
		named[i] = cfg
	}
	for r := 0; r < hubs; r++ {
		p := policy
		if hubs > 1 {
			p = clonePolicy(policy)
		}
		d.regions = append(d.regions, d.newRegion(r, p, adm, named[r*fanout:(r+1)*fanout]))
	}
	return d
}

// newRegion builds one hub shard plus its node shards on the driver.
func (d *ShardedDispatcher) newRegion(idx int, policy Policy, adm Admission, cfgs []NodeConfig) *region {
	r := &region{
		fleet: d, idx: idx, hub: d.drv.AddShard(), policy: policy, adm: adm,
		homeN: len(cfgs), cfgs: cfgs, estimating: policyUsesEstimates(policy),
		trk: map[int]*tracker{}, tenants: map[string]*tenantCounts{}, lastBeacon: -1,
	}
	d.roles = append(d.roles, role{r: r})
	for _, cfg := range cfgs {
		shard := d.drv.AddShard()
		sn := &shardNode{
			node:     NewNode(shard.Engine(), cfg),
			shard:    shard,
			tokens:   map[int]int{},
			attempts: map[int]int{},
			homes:    map[int]*region{},
		}
		d.roles = append(d.roles, role{sn: sn})
		r.join(sn, newView(cfg))
		d.wireNode(sn)
	}
	return r
}

// join adds a node shard and the hub's view of it at the next view
// index.
func (r *region) join(sn *shardNode, v *Node) {
	id := sn.shard.ID()
	if id >= len(r.viewAt) {
		r.viewAt = append(r.viewAt, make([]int32, id+1-len(r.viewAt))...)
	}
	r.viewAt[id] = int32(len(r.views) + 1)
	r.sns = append(r.sns, sn)
	r.views = append(r.views, v)
	r.bookings = append(r.bookings, nil)
}

// wireNode installs the node's runtime hooks. They run on the node's
// shard and only touch node-shard state; everything bound for a hub
// crosses through Send. Echoes route to the booking's home — the hub
// that dispatched the batch, recorded per batch in sn.homes — which is
// always this node's own region until a takeover books foreign work
// here.
func (d *ShardedDispatcher) wireNode(sn *shardNode) {
	rt := sn.node.rt
	rt.OnStart = func(b *runtime.Batch, at event.Time) {
		home, ok := sn.homes[b.ID]
		if !ok || !home.estimating {
			return
		}
		token, ok := sn.tokens[b.ID]
		if !ok {
			return
		}
		// EarliestTo, not a fixed hop: on a multi-region tree the
		// node->hub echo edge is beacon-gridded, and this is now + hop on
		// the one-region tree either way.
		sn.shard.Send(home.hub, sn.shard.EarliestTo(home.hub), d.msg.started,
			parsim.Payload{Ref: b, A: int64(token), B: int64(at)})
	}
	rt.OnComplete = func(res runtime.BatchResult, err error) {
		sn.node.busy += res.Completed - res.Start
		token, ok := sn.tokens[res.ID]
		if !ok {
			return // booking superseded while the execution ran
		}
		home := sn.homes[res.ID]
		delete(sn.tokens, res.ID)
		delete(sn.attempts, res.ID)
		delete(sn.homes, res.ID)
		var failed int64
		if err != nil {
			failed = 1
		}
		// The echo carries the full execution record: the hub's OnDone
		// observers (the serving front end) read per-job spans from it.
		sn.shard.Send(home.hub, sn.shard.EarliestTo(home.hub), d.msg.completed,
			parsim.Payload{Ref: sn.echoes.put(res), A: int64(token), B: failed})
	}
}

// Workers returns the driver's worker count.
func (d *ShardedDispatcher) Workers() int { return d.drv.Workers() }

// WindowStats returns the parsim driver's window statistics after Run —
// the measured parallelism the simulation exposed.
func (d *ShardedDispatcher) WindowStats() parsim.Stats { return d.drv.Stats() }

// Hop returns the cross-shard network latency (the PDES lookahead).
func (d *ShardedDispatcher) Hop() event.Time { return DefaultHop }

// Nodes returns the real (execution-side) nodes in configuration order.
// Between construction and Run their state is safe to read; during Run
// it belongs to the node shards.
func (d *ShardedDispatcher) Nodes() []*Node {
	var nodes []*Node
	for _, r := range d.regions {
		for _, sn := range r.sns[:r.homeN] {
			nodes = append(nodes, sn.node)
		}
	}
	return nodes
}

// admit validates a batch fleet-wide. A nil or empty batch, or a batch
// ID already submitted, is rejected — IDs key the exactly-once
// accounting.
func (d *ShardedDispatcher) admit(b *runtime.Batch) error {
	if b == nil {
		return runtime.ErrNilBatch
	}
	if len(b.Jobs) == 0 {
		return fmt.Errorf("%w (batch %d)", runtime.ErrEmptyBatch, b.ID)
	}
	if d.seen[b.ID] {
		return fmt.Errorf("cluster: duplicate batch ID %d", b.ID)
	}
	d.seen[b.ID] = true
	return nil
}

// Submit registers a batch arrival at b.Arrival. Must be called before
// Run; arrivals may be submitted in any order. Arrivals are sprayed
// round-robin over the regions in submission order (see sprayTarget).
func (d *ShardedDispatcher) Submit(b *runtime.Batch) error {
	if err := d.admit(b); err != nil {
		return err
	}
	r := d.sprayTarget(b.Arrival)
	r.track(b, b.Arrival)
	r.hub.Engine().At(b.Arrival, func() { r.dispatch(b, 0, nil) })
	return nil
}

// HubEngine returns region 0's hub engine — the region that hosts
// hub-resident front ends (internal/serve). Front ends seed arrival
// events here before Run; during Run only events already executing on
// that hub may touch it.
func (d *ShardedDispatcher) HubEngine() *event.Engine { return d.regions[0].hub.Engine() }

// RecordAssignments makes every node retain per-job schedule
// assignments on its batch results, so completion echoes carry the
// observed per-job spans the serving front end inverts for online
// retraining. Call before Run.
func (d *ShardedDispatcher) RecordAssignments() {
	for _, n := range d.Nodes() {
		n.rt.KeepAssignments = true
	}
}

// Inject admits a batch at the current hub time — the entry point for
// hub-resident front ends (internal/serve) that form batches online
// during the run. It must be called from an event executing on region
// 0's hub (or before Run). Same validation contract as Submit;
// b.Arrival should already be set for latency accounting. While region
// 0's hub is frozen, ownership re-homes to the lowest planned-live
// region over a reliable edge; the batch may still migrate later by
// overflow forwarding.
func (d *ShardedDispatcher) Inject(b *runtime.Batch) error {
	if err := d.admit(b); err != nil {
		return err
	}
	r0 := d.regions[0]
	if r0.down {
		if li := d.lowestLiveAt(r0.hub.Engine().Now()); li != 0 {
			dst := d.regions[li]
			r0.rehomed++
			r0.hub.SendReliable(dst.hub, r0.hub.EarliestTo(dst.hub), d.msg.inject, parsim.Payload{Ref: b})
			return nil
		}
		// Every hub frozen: fall through — region 0 parks the dispatch.
	}
	r0.track(b, r0.hub.Engine().Now())
	r0.dispatch(b, 0, nil)
	return nil
}

// ExtendHorizon promises the dispatcher that work may keep arriving
// until at least t (hub time). Liveness and the beacons keep going
// while the horizon is ahead, so an open-loop front end injecting
// batches mid-run keeps failure detection alive even across idle gaps.
func (d *ShardedDispatcher) ExtendHorizon(t event.Time) {
	for _, r := range d.regions {
		if t > r.lastArrival {
			r.lastArrival = t
		}
	}
}

// PredictedCompletion estimates the earliest completion time of a batch
// of jobs if injected right now: over region 0's currently eligible
// views, hub-now plus one dispatch hop plus the view's predicted drain
// plus the idle-node cost estimate of the jobs. Region 0's views are the
// front end's one-round-trip-fresh picture; remote regions are only
// reachable by overflow forwarding anyway. The second result is false
// when no view is eligible (the batch would shed or retry) or region
// 0's hub is frozen. Meaningful with estimate-booking policies;
// estimate-blind policies see drains of zero. Must run on region 0's
// hub (inside an event during Run, or before Run).
func (d *ShardedDispatcher) PredictedCompletion(jobs []*sched.Job) (event.Time, bool) {
	r := d.regions[0]
	if r.down {
		return 0, false
	}
	now := r.hub.Engine().Now()
	probe := &runtime.Batch{ID: -1, Arrival: now, Jobs: jobs}
	best, found := event.Time(0), false
	for _, v := range r.views {
		if !r.eligible(v, probe) {
			continue
		}
		at := now + DefaultHop + v.PredictedDrain(now) + v.EstimateCost(jobs)
		if !found || at < best {
			best, found = at, true
		}
	}
	return best, found
}

// OnDone registers the terminal-state observer. Set before Run; the
// hook runs inside region 0's hub events, so it may legally call
// Inject, PredictedCompletion, and the hub engine. Region 0's own
// settles call it directly; sibling regions relay theirs over a peer
// edge.
func (d *ShardedDispatcher) OnDone(fn func(DoneInfo)) { d.onDone = fn }

// Run advances all shards to quiescence — in parallel for Workers > 1 —
// and merges the regional summaries in region order, which is node
// configuration order. Execution facts (latency results, busy time,
// crashes, lost arrays) come from the node shards; failure attribution
// and the batch ledgers from the hubs.
func (d *ShardedDispatcher) Run() Summary {
	d.prepare()
	d.drv.Run()
	s := Summary{Policy: d.policy.Name()}
	var rts []runtime.Summary
	tenants := map[string]*tenantCounts{}
	for _, r := range d.regions {
		s.Retries += r.retries
		s.ExecErrors += r.execErrors
		s.Timeouts += r.timeouts
		s.HubCrashes += r.hubCrashes
		s.Takeovers += r.takeovers
		s.Rehomed += r.rehomed
		for i, sn := range r.sns[:r.homeN] {
			rt := sn.node.rt.Summarize()
			rts = append(rts, rt)
			s.Nodes = append(s.Nodes, r.nodeSummary(i, rt))
		}
		for name, c := range r.tenants {
			m := row(tenants, name)
			m.submitted += c.submitted
			m.completed += c.completed
			m.shed += c.shed
			m.deadLettered += c.deadLettered
			m.redispatches += c.redispatches
		}
	}
	return summarize(s, rts, tenants)
}

// nodeSummary builds the summary row of home node i: execution facts
// from the node shard, failure attribution from the hub's view.
func (r *region) nodeSummary(i int, rt runtime.Summary) NodeSummary {
	n, v := r.sns[i].node, r.views[i]
	ns := NodeSummary{
		Name: n.Name, Batches: rt.Batches, BusyTime: n.busy, MeanLatMs: rt.MeanLatMs,
		Failures: v.failures, Crashes: n.crashes, ArraysLost: n.ArraysLost(),
		LostByTarget: lostRollup(n.Sys),
	}
	if r.faults != nil {
		ns.Health = mergedHealth(n, v).String()
	}
	return ns
}

// track opens a batch's tracker on this region's hub: from here the
// region owns the batch's accounting until exactly one settle.
func (r *region) track(b *runtime.Batch, at event.Time) {
	r.trk[b.ID] = &tracker{b: b}
	r.pending++
	row(r.tenants, b.Tenant).submitted++
	if at > r.lastArrival {
		r.lastArrival = at
	}
}

// finish moves a batch to a terminal state exactly once.
func (r *region) finish(tr *tracker) bool {
	if tr.done {
		return false
	}
	tr.done = true
	r.pending--
	return true
}

// settle finishes a batch into the given outcome, credits the tenant's
// ledger row, and notifies the OnDone observer. Exactly one settle
// succeeds per batch.
func (r *region) settle(tr *tracker, o Outcome, node string, res runtime.BatchResult) bool {
	if !r.finish(tr) {
		return false
	}
	c := row(r.tenants, tr.b.Tenant)
	switch o {
	case OutcomeCompleted:
		c.completed++
	case OutcomeShed:
		c.shed++
	default:
		c.deadLettered++
	}
	if r.onDone != nil {
		r.onDone(DoneInfo{Batch: tr.b, Outcome: o, At: r.hub.Engine().Now(), Node: node, Result: res})
	}
	return true
}

// eligible reports whether a view may be offered this batch right now.
// Routing sees the monitor's belief, not ground truth: a crashed node
// stays routable until its heartbeats go silent past the liveness limit.
func (r *region) eligible(v *Node, b *runtime.Batch) bool {
	if v.Outstanding() >= r.adm.queueCap() || !v.CanRun(b.Jobs) {
		return false
	}
	if r.faults != nil {
		if v.detectedDown || !v.breaker.Allow(r.hub.Engine().Now()) {
			return false
		}
	}
	return true
}

// dispatch routes one arrival from the hub: filter to eligible views
// (a re-dispatched batch avoids the node it just failed on unless that
// node is the only eligible one), let the policy pick, book the
// estimate hub-side, and send the batch to the chosen node's shard. The
// booking token (the tracker generation) travels with the batch;
// completions echo it back so the hub can discard echoes of bookings it
// has since abandoned. When no view is eligible the batch overflows to a
// sibling region, then falls back to bounded retry, then sheds.
func (r *region) dispatch(b *runtime.Batch, attempt int, avoid *Node) {
	// A frozen hub processes nothing: routing decisions (arrivals, retry
	// timers, re-dispatches) park and replay in order at revival.
	if r.down {
		r.parked = append(r.parked, func() { r.dispatch(b, attempt, avoid) })
		return
	}
	tr := r.trk[b.ID]
	if tr == nil || tr.done {
		return
	}
	eligible, fallback := r.pick[:0], r.avoided[:0]
	for _, v := range r.views {
		if !r.eligible(v, b) {
			continue
		}
		if v == avoid {
			fallback = append(fallback, v)
			continue
		}
		eligible = append(eligible, v)
	}
	r.pick, r.avoided = eligible, fallback
	if len(eligible) == 0 {
		eligible = fallback
	}
	if len(eligible) == 0 {
		if r.tryForward(tr) {
			return
		}
		if attempt < r.adm.MaxRetries {
			r.retries++
			delay := retryDelay(r.adm.backoff(), attempt)
			r.hub.Engine().After(delay, func() { r.dispatch(b, attempt+1, avoid) })
			return
		}
		r.settle(tr, OutcomeShed, "", runtime.BatchResult{})
		return
	}
	v := r.policy.Pick(eligible, b, r.hub.Engine().Now())
	idx := r.viewIndex(v)
	tr.node, tr.idx = v, idx
	tr.gen++
	tr.attempts++
	token := tr.gen
	if r.faults != nil {
		v.breaker.OnPick()
		if dl := r.faults.Deadline; dl > 0 {
			gen := tr.gen
			r.hub.Engine().After(dl, func() { r.onDeadline(tr, gen) })
		}
	}
	if r.estimating {
		est := v.EstimateCost(b.Jobs)
		v.estimates[b.ID] = est
		v.predicted += est
	}
	v.queued++
	r.bookings[idx] = append(r.bookings[idx], b.ID)
	r.hub.SendAfter(r.sns[idx].shard, DefaultHop, r.fleet.msg.dispatch,
		parsim.Payload{Ref: b, A: int64(token), B: int64(tr.attempts - 1)})
}

// viewIndex locates a view's node index. The fleet is small (policy
// Pick is already O(nodes)), so a scan beats carrying a map around.
func (r *region) viewIndex(v *Node) int {
	for i, x := range r.views {
		if x == v {
			return i
		}
	}
	panic("cluster: policy picked a node outside the eligible set")
}

// release drops a booking from a view's ledger: the cost estimate, the
// queued count, and the booking-order entry. Exactly one release
// happens per booking — completion, deadline, or eviction, whichever
// the token/generation guards let through first.
func (r *region) release(idx, id int) {
	v := r.views[idx]
	v.abandon(id)
	v.queued--
	ids := r.bookings[idx]
	for i, x := range ids {
		if x == id {
			r.bookings[idx] = append(ids[:i], ids[i+1:]...)
			break
		}
	}
}

// onStarted updates the view's drain tracking when the node reports a
// batch entering execution. at is node time; the view keeps it as the
// run start so PredictedDrain subtracts real elapsed execution.
func (r *region) onStarted(idx, id, token int, at event.Time) {
	if r.down {
		return // a frozen hub loses its echoes
	}
	tr := r.trk[id]
	if tr == nil || tr.done || tr.gen != token {
		return
	}
	v := r.views[idx]
	v.runningID, v.runStart = id, at
}

// onCompleted settles a completion echo on the hub. A stale token means
// the hub already abandoned that booking (deadline or eviction) — the
// echo is dropped and whatever path superseded it owns the batch.
// Success closes the breaker and completes the batch; an execution error
// counts against the node and sends the batch back through routing.
func (r *region) onCompleted(idx int, res runtime.BatchResult, failed bool, token int) {
	if r.down {
		// A completion echo lost to the freeze: the revival sweep cannot
		// know this booking finished, so it will abort node-side (a
		// no-op — the node already dropped the token) and re-dispatch.
		// The batch may execute twice, but it settles exactly once.
		return
	}
	id := res.ID
	tr := r.trk[id]
	if tr == nil || tr.done || tr.gen != token {
		return
	}
	tr.gen++ // disarm the deadline for this booking
	v := r.views[idx]
	r.release(idx, id)
	if !failed {
		if r.faults != nil {
			v.breaker.OnSuccess()
		}
		r.settle(tr, OutcomeCompleted, v.Name, res)
		return
	}
	r.execErrors++
	v.failures++
	if r.faults == nil {
		// An execution error without failure-aware mode has no
		// re-dispatch budget; the batch is lost to the dead letter queue.
		r.settle(tr, OutcomeDeadLettered, "", runtime.BatchResult{})
		return
	}
	v.breaker.OnFailure(r.hub.Engine().Now())
	r.redispatch(tr, v)
}

// ticking reports whether the hub's liveness chain and beacons must
// keep going: work is outstanding, or arrivals are still due.
func (r *region) ticking() bool {
	return r.pending > 0 || r.hub.Engine().Now() < r.lastArrival
}
