package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"mlimp/internal/event"
	"mlimp/internal/event/parsim"
	"mlimp/internal/fault"
	"mlimp/internal/runtime"
)

// Fabric-fault wiring errors. Hub crashes and edge faults degrade the
// dispatch fabric itself: EnableFaults rejects plans a given fleet
// cannot honour with these named errors (the CLIs surface them at exit
// 2).
var (
	// ErrHubCrashNeedsTree rejects HubCrash windows on a one-region
	// fleet — there is no sibling hub to take over, and the only hub is
	// the observer the determinism contract hangs off.
	ErrHubCrashNeedsTree = errors.New("cluster: hub crashes need a hub tree (Hubs > 1)")
	// ErrEdgeFaultNeedsDeadline rejects lossy edge faults without a
	// dispatch deadline: a dropped dispatch or completion echo is only
	// recovered by the deadline -> re-dispatch path, so running drops
	// without one would break the conservation law by construction.
	ErrEdgeFaultNeedsDeadline = errors.New("cluster: lossy edge faults need a dispatch deadline")
	// ErrUnknownEdgeEndpoint rejects edge faults naming a shard the
	// fleet does not have (node names, or "hub<R>" for region R's hub).
	ErrUnknownEdgeEndpoint = errors.New("cluster: edge fault names unknown shard")
)

// Failure-aware serving. With a FaultConfig enabled, every region
// layers four recovery mechanisms over the basic admission/routing
// fabric:
//
//   - a fault plan (internal/fault) drives deterministic node crashes,
//     revivals, and array-capacity faults in simulated time;
//   - heartbeat liveness: every Heartbeat the hub works out when the
//     pong answering a ping sent now would reach it — from the fault
//     plan, without sending either message — and a sweep declares a
//     node dead after DefaultHeartbeatMiss silent periods, evicts its
//     stranded batches, and re-dispatches them elsewhere;
//   - per-dispatch deadlines: a batch that has not completed Deadline
//     after acceptance is aborted and re-dispatched;
//   - per-node circuit breakers: BreakerK consecutive failures eject a
//     node from routing until a cooldown, after which a single probe
//     batch is allowed through (half-open) before full reinstatement.
//
// Every submitted batch ends in exactly one of three terminal states —
// completed, shed (admission rejected it), or dead-lettered (its
// re-dispatch budget ran out) — and the chaos tests assert that
// conservation law on every run.

// Defaults for FaultConfig zero values, sized against the ~10ms-scale
// batch service times of the Table II app suite.
const (
	DefaultMaxRedispatch   = 3
	DefaultBreakerK        = 3
	DefaultBreakerCooldown = 5 * event.Millisecond
	DefaultHeartbeat       = 250 * event.Microsecond
	DefaultHeartbeatMiss   = 3
)

// FaultConfig switches the fleet into failure-aware mode.
type FaultConfig struct {
	// Plan is the deterministic fault schedule; nil means no injected
	// crashes or array faults (deadlines and ExecError still apply).
	Plan *fault.Plan
	// ExecError overrides the plan's execution-error coin; it is
	// consulted at each batch's completion instant with the 0-based
	// attempt index. Nil uses Plan.ExecError.
	ExecError func(batchID, attempt int) bool
	// Deadline is the per-dispatch completion deadline; 0 disables.
	Deadline event.Time
	// MaxRedispatch bounds failure-driven re-dispatches per batch
	// before it is dead-lettered. 0 means DefaultMaxRedispatch.
	MaxRedispatch int
	// BreakerK is the consecutive-failure threshold that opens a node's
	// breaker. 0 means DefaultBreakerK.
	BreakerK int
	// BreakerCooldown is how long an open breaker waits before allowing
	// a half-open probe. 0 means DefaultBreakerCooldown.
	BreakerCooldown event.Time
	// Heartbeat is the liveness period: one heartbeat round trip and
	// one sweep per period. 0 means DefaultHeartbeat.
	Heartbeat event.Time
}

func (fc FaultConfig) maxRedispatch() int {
	if fc.MaxRedispatch > 0 {
		return fc.MaxRedispatch
	}
	return DefaultMaxRedispatch
}

func (fc FaultConfig) breakerK() int {
	if fc.BreakerK > 0 {
		return fc.BreakerK
	}
	return DefaultBreakerK
}

func (fc FaultConfig) breakerCooldown() event.Time {
	if fc.BreakerCooldown > 0 {
		return fc.BreakerCooldown
	}
	return DefaultBreakerCooldown
}

func (fc FaultConfig) heartbeat() event.Time {
	if fc.Heartbeat > 0 {
		return fc.Heartbeat
	}
	return DefaultHeartbeat
}

// execFn resolves the execution-error coin.
func (fc FaultConfig) execFn() func(batchID, attempt int) bool {
	if fc.ExecError != nil {
		return fc.ExecError
	}
	if fc.Plan != nil {
		return fc.Plan.ExecError
	}
	return nil
}

// --- circuit breaker ---

const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is a per-node circuit breaker in simulated time. Transitions
// are lazy: the open→half-open move happens when the state is next
// consulted after the cooldown, which is deterministic because every
// consult happens at an engine-driven instant.
type breaker struct {
	k        int
	cooldown event.Time

	state       int
	consecFails int
	openedAt    event.Time
	probing     bool // a half-open probe batch is in flight
}

func newBreaker(k int, cooldown event.Time) *breaker {
	return &breaker{k: k, cooldown: cooldown}
}

// tick applies the lazy open→half-open transition.
func (br *breaker) tick(now event.Time) {
	if br.state == breakerOpen && now-br.openedAt >= br.cooldown {
		br.state = breakerHalfOpen
		br.probing = false
	}
}

// Allow reports whether the breaker admits a new batch right now.
// Half-open admits exactly one probe at a time (OnPick books it).
func (br *breaker) Allow(now event.Time) bool {
	br.tick(now)
	switch br.state {
	case breakerClosed:
		return true
	case breakerHalfOpen:
		return !br.probing
	}
	return false
}

// OnPick books the half-open probe once the policy actually routes a
// batch here; merely being considered eligible must not consume it.
func (br *breaker) OnPick() {
	if br.state == breakerHalfOpen {
		br.probing = true
	}
}

// OnSuccess closes the breaker.
func (br *breaker) OnSuccess() {
	br.state = breakerClosed
	br.consecFails = 0
	br.probing = false
}

// OnFailure counts a failure; K in a row (or any failure while
// half-open) opens the breaker.
func (br *breaker) OnFailure(now event.Time) {
	br.consecFails++
	if br.state == breakerHalfOpen || br.consecFails >= br.k {
		br.state = breakerOpen
		br.openedAt = now
		br.probing = false
	}
}

// --- fleet wiring ---

// EnableFaults switches the fleet into failure-aware mode: it validates
// the plan fleet-wide, then every region arms its breakers, deadlines,
// heartbeat liveness, eviction, and re-dispatch over its own nodes. The
// mechanisms route through the mailboxes: the fault plan is seeded into
// the node shards (capacity faults mirrored into the hub's views at the
// same instants), and execution-error coins flip node-side with the
// attempt index carried in the dispatch message. Edge faults degrade
// named fabric edges (hubs under "hub<R>", nodes by name); on a
// multi-region tree, hub crashes and edge faults also turn the load
// beacons into hub heartbeats (tree.go). Call once, before Run.
func (d *ShardedDispatcher) EnableFaults(fc FaultConfig) error {
	if d.faults != nil {
		return fmt.Errorf("cluster: faults already enabled")
	}
	if err := fc.Plan.Validate(); err != nil {
		return err
	}
	if p := fc.Plan; p != nil {
		shards := map[string]*parsim.Shard{}
		for _, r := range d.regions {
			for _, sn := range r.sns {
				shards[sn.node.Name] = sn.shard
			}
		}
		for _, f := range p.ArrayFaults {
			if _, ok := shards[f.Node]; !ok {
				return fmt.Errorf("cluster: array fault names unknown node %q", f.Node)
			}
		}
		for _, c := range p.Crashes {
			if _, ok := shards[c.Node]; !ok {
				return fmt.Errorf("cluster: crash names unknown node %q", c.Node)
			}
		}
		for _, h := range p.HubCrashes {
			if len(d.regions) == 1 {
				return fmt.Errorf("%w (flat fabric)", ErrHubCrashNeedsTree)
			}
			if h.Region >= len(d.regions) {
				return fmt.Errorf("%w: region %d of %d regions", fault.ErrBadHubRegion, h.Region, len(d.regions))
			}
		}
		for ri, r := range d.regions {
			shards[fmt.Sprintf("hub%d", ri)] = r.hub
		}
		if err := wireEdgeFaults(d.drv, shards, fc); err != nil {
			return err
		}
	}
	d.faults = &fc
	for _, r := range d.regions {
		r.enableFaults(d.faults)
	}
	if len(d.regions) > 1 && fc.Plan != nil && (len(fc.Plan.HubCrashes) > 0 || len(fc.Plan.EdgeFaults) > 0) {
		d.armFabricFaults(fc)
	}
	return nil
}

// wireEdgeFaults resolves the plan's edge faults against the fabric's
// shards and schedules them on the parsim driver. Lossy faults require
// a dispatch deadline: dropped dispatches and completion echoes are only
// recovered by the deadline -> re-dispatch path.
func wireEdgeFaults(drv *parsim.Driver, shards map[string]*parsim.Shard, fc FaultConfig) error {
	for _, e := range fc.Plan.EdgeFaults {
		src, ok := shards[e.From]
		if !ok {
			return fmt.Errorf("%w (%q)", ErrUnknownEdgeEndpoint, e.From)
		}
		dst, ok := shards[e.To]
		if !ok {
			return fmt.Errorf("%w (%q)", ErrUnknownEdgeEndpoint, e.To)
		}
		if e.DropProb > 0 && fc.Deadline <= 0 {
			return fmt.Errorf("%w (%s->%s drop=%.2f)", ErrEdgeFaultNeedsDeadline, e.From, e.To, e.DropProb)
		}
		drv.AddEdgeFault(src, dst, parsim.EdgeFault{
			At: e.At, Until: e.Until, DropProb: e.DropProb, Delay: e.Delay,
			Seed: fc.Plan.Seed,
		})
	}
	return nil
}

// enableFaults arms one region's failure handling: a breaker per view,
// the execution-error hook per node, the region's slice of the fault
// plan, and the liveness loops.
func (r *region) enableFaults(fc *FaultConfig) {
	r.faults = fc
	execFn := fc.execFn()
	for i, sn := range r.sns {
		r.views[i].breaker = newBreaker(fc.breakerK(), fc.breakerCooldown())
		if execFn != nil {
			sn := sn
			name := sn.node.Name
			sn.node.rt.ExecError = func(b *runtime.Batch) error {
				attempt := sn.attempts[b.ID]
				if execFn(b.ID, attempt) {
					return fmt.Errorf("cluster: batch %d failed on %s (attempt %d)",
						b.ID, name, attempt)
				}
				return nil
			}
		}
	}
	r.schedulePlan()
	r.startLiveness()
}

// schedulePlan seeds the region's share of the fault plan into its node
// shards' engines — crashes and capacity faults are local facts that
// happen at exact node times — and mirrors capacity faults into the
// hub's views at the same instants, so routing estimates degrade in
// lockstep with the nodes (a real dispatcher would learn of them via a
// control-plane notification). Crashes are deliberately not mirrored:
// the hub's belief about liveness comes only from missed heartbeats, as
// it would in production. The crash windows are also kept, in run
// order, on the shard node: they decide which heartbeats it answers.
func (r *region) schedulePlan() {
	if r.faults.Plan == nil {
		return
	}
	own := map[string]int{}
	for i, sn := range r.sns {
		own[sn.node.Name] = i
	}
	for _, f := range r.faults.Plan.ArrayFaults {
		f := f
		idx, ok := own[f.Node]
		if !ok {
			continue
		}
		sn, v := r.sns[idx], r.views[idx]
		sn.shard.Engine().At(f.At, func() {
			n := sn.node
			n.degrade(f.Target, f.Magnitude(n.Sys.HealthyCapacity(f.Target)))
		})
		r.hub.Engine().At(f.At, func() {
			v.degrade(f.Target, f.Magnitude(v.Sys.HealthyCapacity(f.Target)))
		})
		if f.Transient() {
			sn.shard.Engine().At(f.Recover, func() {
				n := sn.node
				n.restore(f.Target, f.Magnitude(n.Sys.HealthyCapacity(f.Target)))
			})
			r.hub.Engine().At(f.Recover, func() {
				v.restore(f.Target, f.Magnitude(v.Sys.HealthyCapacity(f.Target)))
			})
		}
	}
	for _, c := range r.faults.Plan.Crashes {
		idx, ok := own[c.Node]
		if !ok {
			continue
		}
		sn := r.sns[idx]
		sn.shard.Engine().At(c.At, sn.node.crash)
		sn.outages = append(sn.outages, outage{c.At, true})
		if c.Transient() {
			sn.shard.Engine().At(c.Recover, sn.node.revive)
			sn.outages = append(sn.outages, outage{c.Recover, false})
		}
	}
	for _, sn := range r.sns {
		slices.SortStableFunc(sn.outages, func(a, b outage) int { return cmp.Compare(a.at, b.at) })
	}
}

// outage is one crash-plan transition of a node: down (crash) or up
// (revive) from instant at on.
type outage struct {
	at   event.Time
	down bool
}

// downAt reports whether the fault plan has the node down at instant t:
// the state its crash and revive events leave once every one scheduled
// at or before t has run, in (instant, plan order) order — the order
// the node's engine runs them, and always before any message arriving
// at t, since they are scheduled before the run. A pure function of the
// plan, so any hub may ask it mid-run.
func (sn *shardNode) downAt(t event.Time) bool {
	down := false
	for _, o := range sn.outages {
		if o.at > t {
			break
		}
		down = o.down
	}
	return down
}

// startLiveness arms the hub's liveness tick: every period the hub runs
// its heartbeats (beat) and then sweeps its views (monitorOnce), which
// declares a node dead when its last heartbeat is older than the miss
// budget plus one round trip of slack. The tick re-arms only while work
// remains outstanding (or is still to arrive), so the engine drains
// once the run settles.
func (r *region) startLiveness() {
	period := r.faults.heartbeat()
	var tick func()
	tick = func() {
		// A frozen hub neither beats nor sweeps; the loop keeps
		// re-arming so liveness resumes at revival (the revival sweep
		// resets every view's lastBeat first).
		if !r.down {
			r.beat(period)
			r.monitorOnce()
		}
		if r.ticking() {
			r.hub.Engine().After(period, tick)
		}
	}
	r.hub.Engine().After(period, tick)
}

// beat runs this period's heartbeat round trips without sending them.
// A ping leaving the hub now reaches the node at a1, is answered there
// if the plan has the node up at a1, and the pong reaches the hub at
// a2: parsim's Fate gives each leg's arrival and drop, under the
// period's own coin key, and the node's crash windows give its state.
// Every input is a plan fact or hub-owned, so the hub reads no node
// state. A surviving a2 joins the view's pending arrivals, which the
// sweep at a later tick folds into lastBeat. A pong that would arrive
// while this hub is frozen needs no special case: the revival sweep
// stamps every view after it.
func (r *region) beat(period event.Time) {
	now := r.hub.Engine().Now()
	key := beatKey(int64(now / period))
	drv := r.fleet.drv
	for i, sn := range r.sns {
		a1, lost := drv.Fate(r.hub, sn.shard, now, key)
		if lost || sn.downAt(a1) {
			continue
		}
		if a2, lost := drv.Fate(sn.shard, r.hub, a1, key); !lost {
			v := r.views[i]
			v.beats = append(v.beats, a2)
		}
	}
}

// beatKey is the drop-coin key of period k's heartbeat on both of its
// edges. The high bit keeps it clear of the pair send sequences, which
// count up from 1.
func beatKey(k int64) uint64 { return 1<<63 | uint64(k) }

// foldBeats folds the pending heartbeat arrivals strictly before now
// into lastBeat. One arriving at now itself counts at the next sweep, so
// a tie never depends on event order.
func (v *Node) foldBeats(now event.Time) {
	kept := v.beats[:0]
	for _, a := range v.beats {
		if a >= now {
			kept = append(kept, a)
		} else if a > v.lastBeat {
			v.lastBeat = a
		}
	}
	v.beats = kept
}

// monitorOnce sweeps the views: each view's heartbeat arrivals strictly
// before now are folded into lastBeat first, then nodes silent past the
// limit are declared dead, their bookings released in booking order
// (deterministic — never a map walk) and re-dispatched, and an evict
// message tells the node shard to drop the stranded work. A view whose
// heartbeats arrive again rejoins routing.
func (r *region) monitorOnce() {
	now := r.hub.Engine().Now()
	limit := DefaultHeartbeatMiss*r.faults.heartbeat() + 2*DefaultHop
	for i, v := range r.views {
		v.foldBeats(now)
		silent := now - v.lastBeat
		if !v.detectedDown && silent > limit {
			v.detectedDown = true
			r.hub.SendAfter(r.sns[i].shard, DefaultHop, r.fleet.msg.evict, parsim.Payload{})
			ids := append([]int(nil), r.bookings[i]...)
			r.note("dead %s silent=%v evict=%v", v.Name, silent, ids)
			for _, id := range ids {
				tr := r.trk[id]
				r.release(i, id)
				if tr == nil || tr.done {
					continue
				}
				tr.gen++ // invalidate the booking's deadline and echoes
				r.redispatch(tr, v)
			}
		} else if v.detectedDown && silent <= limit {
			v.detectedDown = false
			r.note("live %s", v.Name)
		}
	}
}

// note hands one liveness verdict to the fleet's test hook, if set.
func (r *region) note(format string, args ...any) {
	if fn := r.fleet.noteLiveness; fn != nil {
		fn(r.idx, fmt.Sprintf("%v hub%d ", r.hub.Engine().Now(), r.idx)+fmt.Sprintf(format, args...))
	}
}

// abortOn tells a node shard, one hop later, to drop a booking the hub
// has abandoned.
func (r *region) abortOn(sn *shardNode, id int) {
	r.hub.SendAfter(sn.shard, DefaultHop, r.fleet.msg.abort, parsim.Payload{A: int64(id)})
}

// onDeadline fires on the hub when a booking's completion deadline
// lapses without an accepted completion echo. A stale generation means
// the batch already completed, failed, or was re-dispatched — only the
// booking this timer was armed for counts.
func (r *region) onDeadline(tr *tracker, gen int) {
	if r.down {
		// Skip, don't park: the booking is still in the ledger, so the
		// revival sweep will abort and re-dispatch it anyway.
		return
	}
	if tr.done || tr.gen != gen {
		return
	}
	idx, v := tr.idx, tr.node
	r.timeouts++
	v.failures++
	v.breaker.OnFailure(r.hub.Engine().Now())
	r.abortOn(r.sns[idx], tr.b.ID)
	r.release(idx, tr.b.ID)
	r.redispatch(tr, v)
}

// redispatch sends a failed batch back through routing, avoiding the
// node it just failed on; the budget is MaxRedispatch, after which the
// batch is dead-lettered.
func (r *region) redispatch(tr *tracker, avoid *Node) {
	if tr.redispatches >= r.faults.maxRedispatch() {
		r.settle(tr, OutcomeDeadLettered, "", runtime.BatchResult{})
		return
	}
	tr.redispatches++
	row(r.tenants, tr.b.Tenant).redispatches++
	tr.gen++ // invalidate any armed deadline for the old booking
	r.dispatch(tr.b, 0, avoid)
}

// mergedHealth classifies a node combining ground truth held by the
// node shard (crash flag, lost arrays) with the hub's belief (liveness,
// breaker state).
func mergedHealth(real, view *Node) Health {
	if real.down || view.detectedDown {
		return DownHealth
	}
	if real.ArraysLost() > 0 || (view.breaker != nil && view.breaker.state != breakerClosed) {
		return Degraded
	}
	return Healthy
}
