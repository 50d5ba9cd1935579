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
//   - heartbeat liveness: a ping every Heartbeat, answered by a pong,
//     and a sweep every Heartbeat that declares a node dead after
//     DefaultHeartbeatMiss silent periods, evicts its stranded batches,
//     and re-dispatches them elsewhere. The hub sends neither message
//     and runs no per-period event: it works out each heartbeat from the
//     fault plan and runs a sweep only where a verdict changes;
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
	// one sweep per period, both computed from the fault plan (the
	// sweeps whose verdict changes are the only engine events). 0 means
	// DefaultHeartbeat.
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
// plan, and the liveness chain.
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

// planDown reports the state a run-ordered outage list leaves once
// every transition at or before t has run.
func planDown(os []outage, t event.Time) bool {
	down := false
	for _, o := range os {
		if o.at > t {
			break
		}
		down = o.down
	}
	return down
}

// downAt reports whether the fault plan has the node down at instant t:
// the state its crash and revive events leave once every one scheduled
// at or before t has run, in (instant, plan order) order — the order
// the node's engine runs them, and always before any message arriving
// at t, since they are scheduled before the run. A pure function of the
// plan, so any hub may ask it mid-run.
func (sn *shardNode) downAt(t event.Time) bool { return planDown(sn.outages, t) }

// upAfter returns the first instant after t at which the plan revives
// the node, never if it stays down.
func (sn *shardNode) upAfter(t event.Time) event.Time {
	for _, o := range sn.outages {
		if o.at > t && !o.down {
			return o.at
		}
	}
	return never
}

// Computed liveness. A view's verdict is what a sweep on the heartbeat
// grid decides: at every instant k*Heartbeat (k >= 1) at which the hub
// is up, a sweep declares a node dead once its liveness stamp is older
// than the miss budget plus one round trip of slack, and live again
// once the stamp is fresh. The stamp is the latest heartbeat arrival
// strictly before the sweep, or the view's last reset if that is later.
// Each period's heartbeat is a plan fact: a ping leaving the hub at
// k*Heartbeat reaches the node at a1, is answered if the plan has the
// node up at a1, and the pong reaches the hub at a2, with each leg's
// arrival and drop given by parsim's Fate under the period's own coin
// key. So the hub works out, per view, the first sweep at which the
// verdict changes (planBeats), and one chain of engine events runs only
// those sweeps: a period in which no verdict changes costs no event.
//
// The chain keeps the end of a sweep loop that ran every period. Such a
// loop stopped for good at the first grid instant at which ticking() was
// false, which cannot come before the region's last arrival is due; the
// chain jumps until then and steps every period after it.
//
// One tie rule orders the sweep: it runs after every other hub event at
// its instant, including those that such events arm for the same
// instant. So a sweep sees every arrival, timer, message, beacon tick,
// freeze and revival of its instant, and no hub event needs to know
// where the sweep falls.

// never is the far-off instant of a verdict that no planned heartbeat
// changes. It leaves headroom for the period arithmetic done on it.
const never = event.Time(1) << 62

// livenessCheckpoint bounds, in heartbeat periods, how far one plan of a
// view looks ahead. A view whose edges stay faulty while its verdict
// holds (a long lossy window, say) is swept and re-planned there.
const livenessCheckpoint = 1024

// gridFloor and gridCeil round t down and up to the heartbeat grid.
func gridFloor(t, period event.Time) event.Time { return t - t%period }
func gridCeil(t, period event.Time) event.Time  { return gridFloor(t+period-1, period) }

// startLiveness arms the region's liveness chain. Its first event runs
// one period after EnableFaults and sweeps every home view, which plans
// each of them.
func (r *region) startLiveness() {
	period := r.faults.heartbeat()
	for _, v := range r.views {
		v.beatFrom, v.nextSweep = period, period
	}
	r.armLiveness(period)
}

// livenessEvent is the chain's event. While another hub event is still
// pending at its instant it re-arms behind it, so it runs last there.
// Then it sweeps the views whose verdict may change now and arms the
// next event — or ends the chain for good once ticking() is false. A
// frozen hub sweeps nothing: its revival sweep re-plans every view.
func (r *region) livenessEvent() {
	eng, period := r.hub.Engine(), r.faults.heartbeat()
	now := eng.Now()
	if at, ok := eng.NextAt(); ok && at == now {
		r.armLiveness(now)
		return
	}
	if r.down {
		for _, v := range r.views {
			v.nextSweep = never
		}
	} else {
		r.sweep(now)
	}
	if !r.ticking() {
		r.lvStopped = true
		return
	}
	next := now + period
	if next < r.lastArrival {
		// ticking() holds before the last arrival: wake for the next
		// verdict, or at the first grid instant where the region may idle.
		next = gridCeil(r.lastArrival, period)
		for _, v := range r.views {
			next = min(next, v.nextSweep)
		}
	}
	r.armLiveness(next)
}

// armLiveness arms the chain's next event at instant at, superseding a
// pending one: that event belongs to an older epoch, whose events do
// nothing.
func (r *region) armLiveness(at event.Time) {
	if r.lvFire == nil || r.lvPending {
		r.lvEpoch++
		epoch := r.lvEpoch
		r.lvFire = func() {
			if r.lvEpoch == epoch {
				r.lvPending = false
				r.livenessEvent()
			}
		}
	}
	r.lvAt, r.lvPending = at, true
	r.hub.Engine().At(at, r.lvFire)
}

// replanLiveness plans views [from:] after they joined or were reset
// (adoption, revival sweep) and moves the chain's next event earlier if
// one of them needs it.
func (r *region) replanLiveness(from int) {
	now := r.hub.Engine().Now()
	at := never
	for i := from; i < len(r.views); i++ {
		r.views[i].nextSweep = r.planBeats(i, now)
		at = min(at, r.views[i].nextSweep)
	}
	if !r.lvStopped && at < r.lvAt {
		r.armLiveness(at)
	}
}

// sweep runs the verdicts due now, in view order: a node silent past the
// limit is declared dead, its bookings released in booking order
// (deterministic — never a map walk) and re-dispatched, and an evict
// message tells the node shard to drop the stranded work; a dead view
// whose heartbeats arrive again rejoins routing. Each swept view is
// planned afresh.
func (r *region) sweep(now event.Time) {
	limit := r.livenessLimit()
	for i, v := range r.views {
		if v.nextSweep != now {
			continue
		}
		silent := now - r.stamp(i, now)
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
		v.nextSweep = r.planBeats(i, now)
	}
}

// livenessLimit is the silence past which a sweep declares a node dead:
// the miss budget plus one round trip of slack.
func (r *region) livenessLimit() event.Time {
	return DefaultHeartbeatMiss*r.faults.heartbeat() + 2*DefaultHop
}

// planBeats returns the first sweep after from at which view i's verdict
// changes. If none does within livenessCheckpoint periods it returns the
// sweep there, and never if no heartbeat can change the verdict or the
// hub freezes first (its revival sweep re-plans).
func (r *region) planBeats(i int, from event.Time) event.Time {
	period, v := r.faults.heartbeat(), r.views[i]
	first := gridFloor(from, period) + period
	check, freeze := first+(livenessCheckpoint-1)*period, r.nextFreeze(from)
	stop := min(check, freeze)
	if v.detectedDown {
		// The stamp was older than the limit at from, so the first sweep
		// after the next arrival brings the node back, and none before.
		a := r.nextBeat(i, from, stop)
		if a == never {
			return never
		}
		if g := gridFloor(a, period) + period; g < stop {
			return g
		}
	} else {
		// A sweep one period after a fault-free period sees a fresh
		// stamp, so only sweeps after faulty periods can find silence.
		limit := r.livenessLimit()
		for p := first - period; ; p += period {
			if p = r.nextFaulty(i, p); p == never {
				return never
			} else if p >= stop {
				break
			}
			if g := p + period; g < stop && g-r.stamp(i, g) > limit {
				return g
			}
		}
	}
	if check < freeze {
		return check
	}
	return never
}

// nextBeat returns the earliest heartbeat arrival of view i at or after
// from, searching the periods whose heartbeats could arrive before stop.
// It returns stop if none of those arrives, and never if no later
// heartbeat can arrive at all.
func (r *region) nextBeat(i int, from, stop event.Time) event.Time {
	period, v, sn := r.faults.heartbeat(), r.views[i], r.sns[i]
	h2n, _, trip := r.beatEdges(i)
	best := never
	p := max(v.beatFrom, gridCeil(from-trip, period))
	for p+2*DefaultHop < min(best, stop) {
		a1 := p + DefaultHop
		if !covered(h2n, p) && sn.downAt(a1) {
			// A fault-free ping to a crashed node: skip to the node's
			// revival or the next ping-edge window, whichever is first.
			up := sn.upAfter(a1)
			for _, f := range h2n {
				if f.At > p {
					up = min(up, f.At+DefaultHop)
				}
			}
			if up == never {
				return best
			}
			p = max(p+period, gridCeil(up-DefaultHop, period))
			continue
		}
		if a, ok := r.beatArrival(i, p); ok && a >= from && a < best {
			best = a
		}
		p += period
	}
	if best == never {
		return stop
	}
	return best
}

// nextFaulty returns the first period at or after p whose heartbeat to
// view i may not make a fault-free round trip: one before the view
// counts heartbeats, one the hub is frozen for, one a fault window of
// either edge covers, or one that finds the node down. never if none.
func (r *region) nextFaulty(i int, p event.Time) event.Time {
	v, sn, period := r.views[i], r.sns[i], r.faults.heartbeat()
	if p < v.beatFrom || planDown(r.freezes, p) {
		return p
	}
	next := never
	span := func(lo, hi event.Time) { // departures in [lo, hi) are faulty
		if q := max(p, gridCeil(lo, period)); q < hi {
			next = min(next, q)
		}
	}
	until := func(f parsim.EdgeFault) event.Time {
		if f.Until == 0 {
			return never
		}
		return f.Until
	}
	h2n, n2h, _ := r.beatEdges(i)
	for _, f := range h2n {
		span(f.At, until(f))
	}
	for _, f := range n2h {
		span(f.At-DefaultHop, until(f)-DefaultHop)
	}
	down := event.Time(-1)
	for _, o := range sn.outages {
		switch {
		case o.down && down < 0:
			down = o.at
		case !o.down && down >= 0:
			span(down-DefaultHop, o.at-DefaultHop)
			down = -1
		}
	}
	if down >= 0 {
		span(down-DefaultHop, never)
	}
	return next
}

// stamp is view i's liveness stamp as a sweep at instant at sees it: the
// latest heartbeat arrival strictly before at, or the view's last reset
// if that is later. Only periods whose heartbeat could still beat the
// best so far are computed.
func (r *region) stamp(i int, at event.Time) event.Time {
	period, v := r.faults.heartbeat(), r.views[i]
	_, _, trip := r.beatEdges(i)
	best := v.lastBeat
	for p := gridFloor(at-1, period); p >= v.beatFrom && p+trip > best; p -= period {
		if a, ok := r.beatArrival(i, p); ok && a < at && a > best {
			best = a
		}
	}
	return best
}

// beatArrival returns when period p's heartbeat round trip to view i's
// node gets back to the hub, or false if it is lost or the hub is frozen
// at p. A ping departing at p reaches the node at a1, which answers if
// the plan has it up at a1, and the pong arrives at a2: each leg's
// arrival and drop come from parsim's Fate under the period's coin key,
// and the node's crash windows give its state. A period that no fault
// window or outage touches makes the fault-free round trip, two prompt
// hops, without asking Fate.
func (r *region) beatArrival(i int, p event.Time) (event.Time, bool) {
	if planDown(r.freezes, p) {
		return 0, false
	}
	sn := r.sns[i]
	h2n, n2h, _ := r.beatEdges(i)
	a1 := p + DefaultHop
	if !covered(h2n, p) && !covered(n2h, a1) && !sn.downAt(a1) {
		return a1 + DefaultHop, true
	}
	drv, key := r.fleet.drv, beatKey(int64(p/r.faults.heartbeat()))
	a1, lost := drv.Fate(r.hub, sn.shard, p, key)
	if lost || sn.downAt(a1) {
		return 0, false
	}
	a2, lost := drv.Fate(sn.shard, r.hub, a1, key)
	return a2, !lost
}

// beatEdges returns the fault windows of view i's ping and pong edges,
// and the longest round trip they allow.
func (r *region) beatEdges(i int) (h2n, n2h []parsim.EdgeFault, trip event.Time) {
	drv, sn := r.fleet.drv, r.sns[i]
	h2n, n2h = drv.EdgeFaults(r.hub, sn.shard), drv.EdgeFaults(sn.shard, r.hub)
	trip = 2 * DefaultHop
	for _, f := range h2n {
		trip += f.Delay
	}
	for _, f := range n2h {
		trip += f.Delay
	}
	return h2n, n2h, trip
}

// covered reports whether any of the fault windows covers departure t.
func covered(fs []parsim.EdgeFault, t event.Time) bool {
	for _, f := range fs {
		if f.Active(t) {
			return true
		}
	}
	return false
}

// beatKey is the drop-coin key of period k's heartbeat on both of its
// edges. The high bit keeps it clear of the pair send sequences, which
// count up from 1.
func beatKey(k int64) uint64 { return 1<<63 | uint64(k) }

// nextFreeze returns the first instant at or after from at which the
// plan freezes the hub, never if none.
func (r *region) nextFreeze(from event.Time) event.Time {
	for _, o := range r.freezes {
		if o.down && o.at >= from {
			return o.at
		}
	}
	return never
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
