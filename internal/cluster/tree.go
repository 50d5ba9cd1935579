package cluster

import (
	"cmp"
	"fmt"
	"slices"

	"mlimp/internal/event"
	"mlimp/internal/event/parsim"
	"mlimp/internal/runtime"
)

// Hierarchical dispatch. The fleet is a tree of R dispatch regions, each
// a hub over a contiguous slice of the nodes: admission, routing,
// booking tokens, deadlines, breakers, and liveness all run
// region-locally. A flat fleet is the one-region tree, and takes none of
// the cross-region machinery below: it declares only its hub–node star
// of one-hop edges, arms no beacon (a ring of one has no peers), routes
// through the caller's policy instance, and rejects hub crashes. What
// crosses regions is deliberately thin and window-local:
//
//   - arrivals are sprayed round-robin over the regions at Submit time
//     (the Tesseract lesson: no coordinator shard on the fast path);
//   - each sub-hub broadcasts a summarised load belief (its total
//     outstanding bookings) to its ring neighbours on a beacon grid
//     every SummaryEvery;
//   - a region whose every local queue is at the admission bound
//     forwards the overflowing batch once to the ring neighbour it
//     believes least loaded — peer-to-peer batch stealing — before
//     falling back to local retry/shed;
//   - on the fault-free fabric, node->hub completion echoes ride the
//     same beacon grid, batching a whole period's completions into one
//     canonical mailbox merge.
//
// The grid edges are what make the tree scale: the parsim driver runs
// every shard to its own conservative horizon over the declared edges
// (SetEdge), so two regions that only talk through a beacon edge are
// provably independent for a whole period at a time and their node
// shards execute dense local work — the Algorithm-2 scheduling passes —
// in the same window instead of serialising into hop-wide slices.
// Determinism is inherited, not re-proven: every cross-region
// interaction is a mailbox message merged in canonical (at, src, send
// order) order at a barrier whose placement depends only on simulated
// time, so summaries stay byte-identical at any worker count.
//
// With faults enabled the tree trades window width back for
// promptness: every edge is re-declared as a plain hop so completion
// echoes, deadline aborts, and heartbeat liveness keep one-region
// timing within each region.

// adoptee is one prebuilt takeover entry: a ring predecessor's shard
// node (shared — the node shard serves both hubs' bookings, routed by
// sn.homes) and a cold view of it for the adopter's routing ledger.
type adoptee struct {
	sn   *shardNode
	view *Node
}

// clonePolicy gives each region its own policy instance so stateful
// policies (round-robin's rotation cursor) stay region-local and
// deterministic under the spray. Policies may implement
// Clone() Policy; otherwise a registered policy is re-instantiated by
// name, and unknown stateless policies are shared as-is.
func clonePolicy(p Policy) Policy {
	if c, ok := p.(interface{ Clone() Policy }); ok {
		return c.Clone()
	}
	if q, ok := PolicyByName(p.Name()); ok {
		return q
	}
	return p
}

// sprayTarget picks the next region in round-robin order — submission
// order, not batch ID, drives the spray, so ID schemes don't bias
// region load. Plan-aware: an arrival aimed at a hub the fault plan has
// frozen at that instant re-sprays to the next planned-live region
// (ring order), so flash crowds during a failover land on hubs that can
// actually route them. Static plan facts only — deterministic.
func (d *ShardedDispatcher) sprayTarget(at event.Time) *region {
	r := d.regions[d.spray%len(d.regions)]
	d.spray++
	if len(d.hubCrashes) > 0 && d.hubDownAt(r.idx, at) {
		for i := 1; i < len(d.regions); i++ {
			c := d.regions[(r.idx+i)%len(d.regions)]
			if !d.hubDownAt(c.idx, at) {
				return c
			}
		}
	}
	return r
}

// hubDownAt reports whether the fault plan freezes region ri's hub at
// instant at. A pure function of the immutable plan, so any shard may
// consult it mid-run.
func (d *ShardedDispatcher) hubDownAt(ri int, at event.Time) bool {
	for _, h := range d.hubCrashes {
		if h.Region == ri && h.At <= at && at < h.Recover {
			return true
		}
	}
	return false
}

// lowestLiveAt returns the lowest region index whose hub the plan
// leaves live at the given instant — the done-relay and inject home
// while region 0 is frozen. Falls back to 0 if the plan freezes every
// hub at once (the messages then park on region 0 until it revives).
func (d *ShardedDispatcher) lowestLiveAt(at event.Time) int {
	for ri := range d.regions {
		if !d.hubDownAt(ri, at) {
			return ri
		}
	}
	return 0
}

// receiveInject adopts a re-homed injection on the receiving region's
// hub: full ownership (tracker and submitted count on its ledger row),
// then a normal local dispatch. The sender never created a tracker, so
// the batch has exactly one owner fleet-wide.
func (r *region) receiveInject(b *runtime.Batch) {
	if r.down {
		r.parked = append(r.parked, func() { r.receiveInject(b) })
		return
	}
	r.track(b, r.hub.Engine().Now())
	r.wakeLiveness()
	r.dispatch(b, 0, nil)
}

// ring returns the region's ring neighbours (one when R == 2, none in a
// one-region tree).
func (d *ShardedDispatcher) ring(idx int) []*region {
	n := len(d.regions)
	if n == 1 {
		return nil
	}
	right := d.regions[(idx+1)%n]
	left := d.regions[(idx+n-1)%n]
	if left == right {
		return []*region{right}
	}
	// Right first: the tie-break target when beliefs are equal/unknown.
	return []*region{right, left}
}

// tryForward implements overflow stealing, called from dispatch on the
// region's hub when no local view is eligible. The batch moves at most
// once (forwarded batches carry their hop count), to the ring
// neighbour with the lowest believed load — beliefs are beacon-fresh,
// i.e. up to one SummaryEvery stale, which is exactly the summarised
// state the tree is allowed to share. Returns false to fall back to
// local retry/shed, always so in a one-region tree.
func (r *region) tryForward(tr *tracker) bool {
	peers := r.peers
	if tr.fwds > 0 || len(peers) == 0 {
		return false
	}
	if r.fleet.suspLimit > 0 {
		// Never steal toward a hub believed dead: a forward is an
		// ownership transfer, and a suspected hub may be frozen with its
		// parked queue growing. Suspicion heals on the next beacon.
		var live []*region
		for _, p := range peers {
			if !r.suspect[p.idx] {
				live = append(live, p)
			}
		}
		if len(live) == 0 {
			return false
		}
		peers = live
	}
	// Lowest believed load wins; a known load beats an unknown one, and
	// ties keep the right-hand neighbour (ring order).
	best := peers[0]
	bestLoad := r.beliefs[best.idx]
	for _, p := range peers[1:] {
		if l := r.beliefs[p.idx]; l >= 0 && (bestLoad < 0 || l < bestLoad) {
			best, bestLoad = p, l
		}
	}
	// Disown the batch before it travels: stale local closures (retry
	// timers, deadline guards) find no tracker and fall through.
	delete(r.trk, tr.b.ID)
	r.pending--
	r.stolen++
	b, fwds, dst := tr.b, tr.fwds+1, best
	// Reliable: the batch has exactly one owner fleet-wide, so the
	// transfer itself must survive lossy edges (think retransmitting
	// transport); it still pays any injected delay.
	r.hub.SendReliable(dst.hub, r.hub.EarliestTo(dst.hub), r.fleet.msg.forward,
		parsim.Payload{Ref: b, A: int64(fwds)})
	return true
}

// receiveForward adopts a stolen batch on the receiving region's hub:
// a fresh tracker (the sender already disowned it, so fleet-wide the
// batch still has exactly one owner) and a normal local dispatch with
// a fresh retry budget. Submitted is not re-counted — the sender's
// region did that — so merged conservation still balances.
func (r *region) receiveForward(b *runtime.Batch, fwds int) {
	if r.down {
		r.parked = append(r.parked, func() { r.receiveForward(b, fwds) })
		return
	}
	if _, dup := r.trk[b.ID]; dup {
		panic(fmt.Sprintf("cluster: forwarded batch %d already tracked in region %d", b.ID, r.idx))
	}
	r.trk[b.ID] = &tracker{b: b, fwds: fwds}
	r.pending++
	r.taken++
	r.wakeLiveness()
	r.dispatch(b, 0, nil)
}

// prepare wires the terminal-state observer, declares the fleet's
// communication edges to the parsim driver and, on a multi-region tree,
// arms the belief beacons. Runs once, immediately before the driver.
func (d *ShardedDispatcher) prepare() {
	d.wireDone()
	hubs := len(d.regions)
	prompt := parsim.EdgeLatency{Fixed: DefaultHop}
	beacon := parsim.EdgeLatency{Fixed: DefaultHop, Grid: d.summaryEvery}
	if d.faults != nil || hubs == 1 {
		// Fault mode needs one-region promptness: completion echoes race
		// deadlines, and heartbeats are computed over these edges. A
		// one-region tree has no beacon grid at all: its echoes are prompt.
		beacon = prompt
	}
	for _, r := range d.regions {
		r.peers = d.ring(r.idx)
		r.beliefs = make([]int, hubs)
		for i := range r.beliefs {
			r.beliefs[i] = -1
		}
		r.peerLast = make([]event.Time, hubs)
		r.suspect = make([]bool, hubs)
		if d.suspLimit > 0 {
			r.peerIdle = make([]bool, hubs)
		}
		r.adopted = make([]bool, hubs)
		for _, sn := range r.sns {
			d.drv.SetEdge(r.hub, sn.shard, prompt)
			d.drv.SetEdge(sn.shard, r.hub, beacon)
		}
		for _, p := range r.peers {
			d.drv.SetEdge(r.hub, p.hub, beacon)
		}
	}
	if d.onDone != nil {
		// Terminal-state relays flow to region 0, where the front end
		// lives; ring edges already cover the adjacent regions and
		// SetEdge replaces duplicates, so declaring all is harmless.
		for _, r := range d.regions[1:] {
			d.drv.SetEdge(r.hub, d.regions[0].hub, beacon)
		}
	}
	if d.suspLimit > 0 {
		// Fabric-fault mode: any hub may need to reach any node (takeover
		// bookings, revival-sweep aborts) and any hub (done-relay
		// failover, inject re-homing), so declare the full mesh prompt.
		for _, a := range d.regions {
			for _, b := range d.regions {
				if a == b {
					continue
				}
				d.drv.SetEdge(a.hub, b.hub, prompt)
				for _, sn := range b.sns {
					d.drv.SetEdge(a.hub, sn.shard, prompt)
					d.drv.SetEdge(sn.shard, a.hub, prompt)
				}
			}
		}
		// Prebuild the takeover entries: each region holds cold views of
		// its ring predecessor's nodes, built now so adoption mid-run
		// never reads a remote shard. The shard nodes are shared — after
		// a takeover they serve bookings from both hubs, with each echo
		// routed home by sn.homes.
		for _, r := range d.regions {
			r.adoptees = map[int][]adoptee{}
			p := d.regions[(r.idx+hubs-1)%hubs]
			var as []adoptee
			for i, sn := range p.sns[:p.homeN] {
				v := newView(p.cfgs[i])
				v.breaker = newBreaker(d.faults.breakerK(), d.faults.breakerCooldown())
				as = append(as, adoptee{sn: sn, view: v})
			}
			r.adoptees[p.idx] = as
		}
	}
	if hubs == 1 {
		return // a ring of one has no peers to beacon to
	}
	for _, r := range d.regions {
		d.armBeacon(r)
	}
}

// wireDone points every region's settle hook at the fleet observer.
// Region 0 hosts the observer (and the front end), so its settles call
// straight through; sibling regions relay the DoneInfo over their edge
// to region 0, preserving DoneInfo.At as the originating region's
// settle time.
func (d *ShardedDispatcher) wireDone() {
	if d.onDone == nil {
		return
	}
	d.regions[0].onDone = d.onDone
	for _, r := range d.regions[1:] {
		r := r
		r.onDone = func(di DoneInfo) { d.relayDone(r, di) }
	}
}

// relayDone carries a sibling region's terminal-state record to the
// observer on region 0's shard. While the plan freezes region 0's hub,
// the record routes through the lowest planned-live hub instead — the
// relay a real cluster would elect — and reaches region 0's shard one
// extra hop later, where the co-located front end (a separate process
// that survives the hub crash) consumes it. Reliable sends throughout:
// a terminal state is an ownership fact and must not be lost to a
// lossy edge.
func (d *ShardedDispatcher) relayDone(r *region, di DoneInfo) {
	r0 := d.regions[0]
	home := 0
	if len(d.hubCrashes) > 0 {
		home = d.lowestLiveAt(r.hub.Engine().Now())
	}
	msg := parsim.Payload{Ref: r.relays.put(di)}
	if home == 0 || d.regions[home] == r {
		if home != 0 {
			r.rehomed++
		}
		r.hub.SendReliable(r0.hub, r.hub.EarliestTo(r0.hub), d.msg.done, msg)
		return
	}
	relay := d.regions[home].hub
	r.hub.SendReliable(relay, r.hub.EarliestTo(relay), d.msg.relay, msg)
}

// armBeacon starts one region's summarised-load broadcast: every
// SummaryEvery (while the region still has work or expects more), the
// hub snapshots its total outstanding bookings and sends the value —
// carried in the message payload, the receiving shard never reads
// sender state — to each ring neighbour (onBeacon).
func (d *ShardedDispatcher) armBeacon(r *region) {
	idx := r.idx
	var tick func()
	tick = func() {
		if r.down {
			// A frozen hub beacons nothing — that silence is exactly what
			// its ring successor's suspicion clock measures. The loop
			// keeps re-arming so beacons resume at revival.
			if r.ticking() {
				r.hub.Engine().After(d.summaryEvery, tick)
			}
			return
		}
		load := 0
		for _, v := range r.views {
			load += v.Outstanding()
		}
		// A hub with no work left stops beaconing after this tick. In
		// fabric-fault mode the beacon says so, so that its successor reads
		// the silence that follows as idleness, not death.
		idle := !r.ticking()
		// An unchanged load is already what the peers believe (the first
		// tick always sends: lastBeacon starts at -1 and load is >= 0),
		// so re-sending it would only add traffic to no effect.
		// In fabric-fault mode every tick sends: the beacon doubles as
		// the hub-level heartbeat, and skip-unchanged would read as death.
		if d.suspLimit > 0 || load != r.lastBeacon {
			r.lastBeacon = load
			var last int64
			if idle {
				last = 1
			}
			for _, p := range r.peers {
				r.hub.Send(p.hub, r.hub.EarliestTo(p.hub), d.msg.beacon, parsim.Payload{A: int64(load), B: last})
			}
		}
		if d.suspLimit > 0 {
			// Suspicion clock: this region watches its ring predecessor
			// (successor-only, so exactly one region adopts a silent hub's
			// nodes). peerLast starts at 0, but the limit is >= three
			// beacon periods, so a live predecessor always beats it. A
			// predecessor whose last beacon said it went idle is silent
			// because it has no work, and is not suspected.
			pi := (idx + len(d.regions) - 1) % len(d.regions)
			now := r.hub.Engine().Now()
			if !r.adopted[pi] && !r.suspect[pi] && !r.peerIdle[pi] && now-r.peerLast[pi] > d.suspLimit {
				r.suspect[pi] = true
				r.adopt(pi)
			}
		}
		if !idle {
			r.hub.Engine().After(d.summaryEvery, tick)
		}
	}
	r.hub.Engine().At(d.summaryEvery, tick)
}

// adopt executes a region takeover on the adopter's hub: the suspected
// ring predecessor's prebuilt entries — shared shard nodes plus cold
// views — join the adopter's routing set past homeN. Adoption is sticky
// for the run (beliefs may heal, routing stays safe: every booking's
// echo carries its home). The adopted views start with a fresh liveness
// stamp so the adopter's sweep gives their heartbeats time to arrive,
// and count heartbeats from the first sweep at or after the adoption:
// a sweep at this instant runs after the beacon tick (fault.go).
func (r *region) adopt(pi int) {
	r.adopted[pi] = true
	r.takeovers++
	r.note("adopt hub%d", pi)
	now := r.hub.Engine().Now()
	from := gridCeil(now, r.faults.heartbeat())
	n := len(r.views)
	for _, a := range r.adoptees[pi] {
		a.view.lastBeat, a.view.beatFrom = now, from
		r.join(a.sn, a.view)
	}
	r.replanLiveness(n)
}

// reviveSweep runs on a hub the instant its freeze window ends. Every
// booking made before the crash is in doubt — its completion echo may
// have been lost to the freeze — so the sweep aborts and re-dispatches
// all of them (exactly-once still holds: a batch that did complete
// node-side has already dropped its token, making the abort a no-op and
// the re-execution's settle the only one). Liveness stamps reset first
// so the sweep doesn't declare the whole fleet dead over heartbeats the
// freeze swallowed, then the parked reliable inputs replay in arrival
// order. Re-dispatches here charge the tenant's ledger row but not the
// batch's own budget — the fabric failed, not the batch.
func (r *region) reviveSweep() {
	now := r.hub.Engine().Now()
	for _, v := range r.views {
		v.lastBeat = now
		v.detectedDown = false
	}
	r.replanLiveness(0)
	// Beacons the freeze swallowed must not read as the peers' silence:
	// every suspicion clock restarts now, as the views' liveness does.
	for i := range r.peerLast {
		r.peerLast[i] = now
		r.suspect[i] = false
	}
	// Snapshot every view's bookings before aborting any: a batch the
	// sweep re-dispatches onto a later view is a fresh booking, not one
	// in doubt, and must not be swept a second time.
	inDoubt := make([][]int, len(r.views))
	for idx := range r.views {
		inDoubt[idx] = append([]int(nil), r.bookings[idx]...)
	}
	r.note("revive in-doubt=%v", inDoubt)
	for idx, ids := range inDoubt {
		for _, id := range ids {
			tr := r.trk[id]
			r.release(idx, id)
			if tr == nil || tr.done {
				continue
			}
			tr.gen++ // invalidate the booking's deadline and echoes
			r.abortOn(r.sns[idx], id)
			row(r.tenants, tr.b.Tenant).redispatches++
			r.dispatch(tr.b, 0, nil)
		}
	}
	parked := r.parked
	r.parked = nil
	for _, fn := range parked {
		fn()
	}
}

// armFabricFaults arms a multi-region tree's hub freeze windows and
// switches its beacons into heartbeat duty (suspLimit > 0 gates all of
// it), then stretches every region's horizon past the last fault
// window.
func (d *ShardedDispatcher) armFabricFaults(fc FaultConfig) {
	d.hubCrashes = fc.Plan.HubCrashes
	d.suspLimit = DefaultHeartbeatMiss*d.summaryEvery + 2*DefaultHop
	var maxT event.Time
	for _, h := range fc.Plan.HubCrashes {
		r := d.regions[h.Region]
		r.hub.Engine().At(h.At, func() { r.down = true; r.hubCrashes++ })
		r.hub.Engine().At(h.Recover, func() { r.down = false; r.reviveSweep() })
		r.freezes = append(r.freezes, outage{h.At, true}, outage{h.Recover, false})
		if h.Recover > maxT {
			maxT = h.Recover
		}
	}
	for _, r := range d.regions {
		slices.SortStableFunc(r.freezes, func(a, b outage) int { return cmp.Compare(a.at, b.at) })
	}
	for _, e := range fc.Plan.EdgeFaults {
		if e.Until > maxT {
			maxT = e.Until
		}
	}
	if maxT > 0 {
		// Liveness and the beacons keep going while the horizon is ahead:
		// promise activity through every fault window plus a full
		// suspicion round, so detection outlives the chaos.
		d.ExtendHorizon(maxT + d.suspLimit + d.summaryEvery)
	}
}
