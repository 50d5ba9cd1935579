package cluster

import (
	"sync/atomic"

	"mlimp/internal/event"
	"mlimp/internal/event/parsim"
	"mlimp/internal/runtime"
)

// Cross-shard messages. Everything one shard tells another travels as a
// typed parsim message: a handler registered once per dispatcher and a
// fixed payload (one reference plus two integer words), never a
// closure. Handlers run on the destination shard and find the hub or
// node there, and the sender, through d.roles by shard ID; a hub finds
// its view of a node by the node's shard (region.view).

// messages holds the fleet's message kinds.
type messages struct {
	// Hub -> node.
	dispatch parsim.Handler // Ref batch, A token, B attempt index
	evict    parsim.Handler
	abort    parsim.Handler // A batch ID
	// Node -> hub.
	started   parsim.Handler // Ref batch, A token, B start time
	completed parsim.Handler // Ref *record[runtime.BatchResult], A token, B failed (0/1)
	// Hub -> hub.
	beacon  parsim.Handler // A the sender's load, B 1 on its last beacon (idle)
	forward parsim.Handler // Ref batch, A forward count
	inject  parsim.Handler // Ref batch
	relay   parsim.Handler // Ref *record[DoneInfo]; passed on to region 0 as done
	done    parsim.Handler // Ref *record[DoneInfo], for the observer on region 0
}

// record is one pooled message record: the sending shard fills v and
// sends the record's pointer, and the handler on the receiving shard
// copies v out and frees the record. The busy flag is the one cross-
// shard touch, and it is atomic: the handler's reads come before its
// release, and the sender refills a record only once it sees the
// release, so a warm send allocates nothing and -race stays quiet.
type record[T any] struct {
	v    T
	busy atomic.Bool
}

// take copies the record's value out and frees it for its sender.
func (rec *record[T]) take() T {
	v := rec.v
	rec.busy.Store(false)
	return v
}

// records is one sending shard's pool of message records. A record
// whose message an edge fault drops is never freed; the pool simply
// grows past it.
type records[T any] []*record[T]

// put fills a free record with v, growing the pool if every record is
// in flight, and returns it marked busy.
func (p *records[T]) put(v T) *record[T] {
	var rec *record[T]
	for _, r := range *p {
		if !r.busy.Load() {
			rec = r
			break
		}
	}
	if rec == nil {
		rec = &record[T]{}
		*p = append(*p, rec)
	}
	rec.v = v
	rec.busy.Store(true)
	return rec
}

// role is what runs on one shard: a region's hub (r) or a node (sn).
type role struct {
	r  *region
	sn *shardNode
}

// registerMessages registers every message kind on the driver.
func (d *ShardedDispatcher) registerMessages() {
	h := d.drv.Handle
	d.msg = messages{
		dispatch:  h(d.onDispatch),
		evict:     h(d.onEvict),
		abort:     h(d.onAbort),
		started:   h(d.onStarted),
		completed: h(d.onCompleted),
		beacon:    h(d.onBeacon),
		forward:   h(d.onForward),
		inject:    h(d.onInject),
		relay:     h(d.onRelay),
		done:      h(d.onDoneMsg),
	}
}

// view returns the index of the region's view of the node on shard id.
func (r *region) view(id int) int { return int(r.viewAt[id]) - 1 }

// onDispatch books a dispatched batch on its node: the token and
// attempt index travel with it, and the echo home is the sending hub.
func (d *ShardedDispatcher) onDispatch(dst *parsim.Shard, src int, p parsim.Payload) {
	sn, b := d.roles[dst.ID()].sn, p.Ref.(*runtime.Batch)
	sn.tokens[b.ID] = int(p.A)
	sn.attempts[b.ID] = int(p.B)
	sn.homes[b.ID] = d.roles[src].r
	if err := sn.node.rt.Enqueue(b); err != nil {
		panic("cluster: " + err.Error()) // batches are validated at Submit
	}
}

// onEvict drops every batch stranded on a node its hub declared dead.
func (d *ShardedDispatcher) onEvict(dst *parsim.Shard, _ int, _ parsim.Payload) {
	sn := d.roles[dst.ID()].sn
	for _, b := range sn.node.rt.Evict() {
		delete(sn.tokens, b.ID)
		delete(sn.attempts, b.ID)
		delete(sn.homes, b.ID)
	}
}

// onAbort drops one booking the hub has abandoned.
func (d *ShardedDispatcher) onAbort(dst *parsim.Shard, _ int, p parsim.Payload) {
	sn, id := d.roles[dst.ID()].sn, int(p.A)
	delete(sn.tokens, id)
	delete(sn.attempts, id)
	delete(sn.homes, id)
	sn.node.rt.Abort(id)
}

func (d *ShardedDispatcher) onStarted(dst *parsim.Shard, src int, p parsim.Payload) {
	r := d.roles[dst.ID()].r
	r.onStarted(r.view(src), p.Ref.(*runtime.Batch).ID, int(p.A), event.Time(p.B))
}

func (d *ShardedDispatcher) onCompleted(dst *parsim.Shard, src int, p parsim.Payload) {
	r := d.roles[dst.ID()].r
	r.pre = false // mail runs after the liveness sweep armed before it (fault.go)
	r.onCompleted(r.view(src), p.Ref.(*record[runtime.BatchResult]).take(), p.B != 0, int(p.A))
}

// onBeacon records a ring neighbour's load belief and, in fabric-fault
// mode, its liveness and whether it went idle. A frozen hub loses the
// beacon.
func (d *ShardedDispatcher) onBeacon(dst *parsim.Shard, src int, p parsim.Payload) {
	r, idx := d.roles[dst.ID()].r, d.roles[src].r.idx
	if r.down {
		return
	}
	r.beliefs[idx] = int(p.A)
	if d.suspLimit > 0 {
		r.peerLast[idx] = dst.Engine().Now()
		r.peerIdle[idx] = p.B != 0
		r.suspect[idx] = false
	}
}

func (d *ShardedDispatcher) onForward(dst *parsim.Shard, _ int, p parsim.Payload) {
	r := d.roles[dst.ID()].r
	r.pre = false
	r.receiveForward(p.Ref.(*runtime.Batch), int(p.A))
}

func (d *ShardedDispatcher) onInject(dst *parsim.Shard, _ int, p parsim.Payload) {
	r := d.roles[dst.ID()].r
	r.pre = false
	r.receiveInject(p.Ref.(*runtime.Batch))
}

// onRelay passes a terminal-state record on to region 0 from the relay
// hub standing in while region 0's hub is frozen (see relayDone).
func (d *ShardedDispatcher) onRelay(dst *parsim.Shard, _ int, p parsim.Payload) {
	d.roles[dst.ID()].r.rehomed++
	r0 := d.regions[0].hub
	dst.SendReliable(r0, dst.EarliestTo(r0), d.msg.done, p)
}

// onDoneMsg hands a sibling region's terminal-state record to the fleet
// observer on region 0.
func (d *ShardedDispatcher) onDoneMsg(_ *parsim.Shard, _ int, p parsim.Payload) {
	d.onDone(p.Ref.(*record[DoneInfo]).take())
}
