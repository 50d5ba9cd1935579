// Package parsim parallelises the deterministic event engine across
// shards: a conservative parallel discrete-event simulation (PDES)
// driver in the Chandy–Misra tradition, specialised to the fixed-
// lookahead case. Each shard owns a private event.Engine; the driver
// advances all shards through a sequence of simulation windows
// [T, T+lookahead), where T is the globally earliest pending event and
// the lookahead is the minimum latency of any cross-shard interaction
// (the dispatch/network hop of internal/cluster, bounded below by the
// DDR4 round trip of internal/mainmem). Within a window the shards are
// causally independent — any event a shard executes at time t can only
// influence another shard at t+lookahead or later, which is strictly
// beyond the window — so the shards may run concurrently without any
// locking of simulation state.
//
// Cross-shard events are data, not closures: a message is (delivery
// time, source shard, handler ID, payload). Handlers are registered once
// per message kind on the Driver (Handle) and run on the destination
// shard with (destination, source shard ID, payload). A Payload is one
// reference — a pointer the message points at, such as a batch — and
// two integer words, so a warm send copies a 48-byte record and
// allocates nothing, and a message can be logged or compared like any
// other value. Messages travel through per-(src,dst) SPSC mailboxes:
// only the source shard's executing goroutine appends, and only the
// driver drains, at the window barrier, on one goroutine. Determinism
// is a contract, not an accident: at every barrier the driver merges
// each destination's incoming messages in (at, src shard, send order)
// order before handing them to the destination, which gives every
// message a canonical position in the destination's (at, seq) total
// order. The merged order depends only on simulated time and shard
// topology — never on OS scheduling — so a run with 1 worker and a run
// with N workers execute byte-identical event sequences. Send order
// realises the "global seq ranges per shard per window" tie-break:
// within one delivery timestamp, messages order by source shard ID,
// then by the order the source sent them.
//
// Delivery keeps the engine's plain func events. Each merged message is
// copied into an envelope — a delivery slot the destination shard owns
// and reuses — and the envelope's prebuilt run func is scheduled on the
// engine at the message's time, in merge order. Each message is thus one
// engine event inserted at its merge position, so the engine's (at,
// insertion seq) order runs mail in canonical order, also when a later
// barrier delivers an earlier timestamp than mail already waiting. When
// it runs, the envelope returns to its shard's free list and calls the
// handler.
//
// Uniform lookahead is the right model when every shard pair is one
// network hop apart — the flat hub fabric. Hierarchical fabrics have
// structured latencies: dispatch edges are prompt (one hop), while
// summarised state flows upward on a beacon grid (a sub-hub only emits
// load beliefs at multiples of a summary period). Declaring those edges
// (SetEdge) switches the driver to per-shard conservative horizons: at
// each barrier it computes, per shard, the earliest instant any other
// shard could possibly influence it — earliest-event propagation over
// the declared edge latencies, settled in one label-setting pass — and
// lets every shard run to its own horizon. Events that are minutes of
// simulated time apart on shards that only talk through a slow beacon
// edge then execute in one window instead of serialising into hop-wide
// slices.
//
// The barrier costs what the window carries. Active shards are handed
// to workers-1 persistent helpers by one wake each and one barrier per
// window, not one handoff per shard. A send records its pair when the
// pair's outbox turns non-empty, so delivery walks only the shards that
// ran and the pairs that carried mail, and next-event times are
// refreshed only for shards that ran or received mail. The horizon pass
// relaxes only the out-edges of shards that can still act; sources with
// the same latency class and destination list share one edge group,
// relaxed once per pass (on a dense mesh every node sends to the same
// hubs); and it stops once no horizon that decides the window can fall
// further. Per window that is at most O(shards + messages + distinct
// edge groups reached), never O(shards²).
package parsim

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"mlimp/internal/event"
)

// Handler names one message kind registered on a Driver (see Handle).
// The zero Handler names none.
type Handler int32

// Payload is a message's argument record. Ref carries at most one
// reference and should hold a pointer or nil: boxing a pointer in an
// interface is free, while most other values allocate. A and B are
// plain integer words — indices, counts, tokens, times.
type Payload struct {
	Ref  any
	A, B int64
}

// message is one cross-shard event in flight. An outbox holds one
// pair's messages in send order.
type message struct {
	at  event.Time
	src int32 // sending shard ID
	h   Handler
	p   Payload
}

// cmpMessage orders messages by delivery time, then source shard. The
// barrier merge sorts with it stably over outboxes kept in send order,
// so messages of one pair at one instant keep their send order: the
// canonical (at, src, send order) order, whatever the merge's input
// order across sources.
func cmpMessage(a, b message) int {
	if a.at != b.at {
		if a.at < b.at {
			return -1
		}
		return 1
	}
	return int(a.src - b.src)
}

// inf is the horizon of a shard nothing can influence.
const inf = event.Time(math.MaxInt64)

// FNV-1a parameters, for hashing destination lists when prepare interns
// edge groups.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// EdgeLatency describes the minimum delivery latency of one directed
// shard edge. Fixed must be positive: it is the network latency every
// message pays, and the strict time advance the conservative horizon
// computation needs for progress. A positive Grid additionally
// quantises departures to a beacon schedule: a message sent at t leaves
// at the next multiple of Grid (inclusive — a send exactly on the grid
// departs immediately) and arrives Fixed later. Grid edges model
// summarised-state channels — belief uplinks that batch everything
// since the last beacon — and are what lets the horizon computation
// prove two shards independent for a whole beacon period at a time.
type EdgeLatency struct {
	Fixed event.Time
	Grid  event.Time
}

// arrival returns the earliest instant a message sent at t can be
// delivered over this edge. Monotone in t, and strictly greater than t
// (Fixed > 0): edges are FIFO and always advance time, which is what
// makes the label-setting horizon pass exact.
func (l EdgeLatency) arrival(t event.Time) event.Time {
	if l.Grid > 0 {
		if r := t % l.Grid; r != 0 {
			t += l.Grid - r
		}
	}
	return t + l.Fixed
}

// EdgeFault is one deterministic fault window on a directed shard edge:
// messages departing inside [At, Until) are dropped with probability
// DropProb, and survivors arrive Delay later than they would have. The
// drop coin is a pure hash of (Seed, src, dst, key) — all simulated
// facts — so the same fault schedule drops the same messages at every
// worker count. Send keys each message by its per-pair sequence number;
// Fate takes the key from its caller, so a message that is computed
// rather than sent (a heartbeat keyed by its period) draws a coin of
// its own without touching the pair's sequence. Both degradations are
// conservative with respect to the horizon computation: a dropped message removes an
// arrival the horizon already budgeted for, and a delayed one arrives
// strictly after its edge bound, so window safety is never violated.
type EdgeFault struct {
	At, Until event.Time // fault window; Until 0 = rest of the run
	DropProb  float64
	Delay     event.Time
	Seed      int64
}

// Active reports whether the window covers departure instant t.
func (f EdgeFault) Active(t event.Time) bool {
	return t >= f.At && (f.Until == 0 || t < f.Until)
}

// splitmix64 is the SplitMix64 finaliser — the same well-mixed integer
// hash internal/fault uses for its exec-error coin, duplicated here so
// the generic simulation layer stays free of fault-model imports.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// edgeCoin draws the uniform [0,1) drop coin for the message with the
// given key on src->dst.
func edgeCoin(seed int64, src, dst int, key uint64) float64 {
	h := splitmix64(uint64(seed) ^ uint64(uint32(src))<<48 ^ uint64(uint32(dst))<<32 ^ key)
	return float64(h>>11) / float64(1<<53)
}

// link is one directed (src, dst) pair as its source sees it: the
// outbox, the per-pair send counter, and what SetEdge and AddEdgeFault
// declared for the pair. A shard's links are indexed by destination.
type link struct {
	out    []message
	seq    uint64 // send attempts on the pair; feeds the drop coin
	class  int32  // 1 + index into Driver.classes; 0 = no declared edge
	faults int32  // 1 + index into Driver.faults; 0 = no fault windows
}

// Shard is one partition of the simulation: a private engine plus the
// outboxes feeding every other shard. A shard's engine may only be
// touched by the goroutine currently executing that shard's window (or
// by anyone between Run calls / before Run).
type Shard struct {
	id    int
	drv   *Driver
	eng   *event.Engine
	links []link     // indexed by destination shard ID
	dirty []int32    // destinations whose outbox turned non-empty since the last barrier
	limit event.Time // this window's execution horizon (driver-owned)
	inbox []int32    // sources with mail for this shard (driver-owned, barrier scratch)
	runs  int        // windows this shard has executed in (owned like eng)

	// free holds the shard's idle envelopes: the driver takes one per
	// delivered message at the barrier, and each returns itself when its
	// message has run.
	free []*envelope

	// Edge-fault tallies, owned by whichever goroutine executes this
	// shard's window (like eng); summed into Stats at the end of Run.
	dropped int
	delayed int
}

// ID returns the shard's index in driver order.
func (s *Shard) ID() int { return s.id }

// Engine returns the shard's private engine. Before Run, callers seed
// initial events directly here (arrival streams, fault plans); during
// Run, only events executing on this shard may touch it.
func (s *Shard) Engine() *event.Engine { return s.eng }

// Send delivers message h with payload p to dst at absolute time at:
// h's handler then runs on dst's engine at that instant. It must be
// called from an event executing on s (or before Run), and at must
// respect the conservative lookahead contract: at >= s.Engine().Now() +
// lookahead. Violating the contract would let a window's output land
// inside the same window on another shard — the causality error
// conservative PDES exists to prevent — so it panics.
func (s *Shard) Send(dst *Shard, at event.Time, h Handler, p Payload) {
	s.send(dst, at, h, p, false)
}

// SendReliable is Send over a retransmitting transport: edge faults on
// the pair still delay the message, but can never drop it. Use it for
// messages whose loss would break a conservation law the simulation is
// supposed to prove — ownership transfers, completion relays — and
// plain Send for everything a timeout or the next beacon re-covers.
func (s *Shard) SendReliable(dst *Shard, at event.Time, h Handler, p Payload) {
	s.send(dst, at, h, p, true)
}

func (s *Shard) send(dst *Shard, at event.Time, h Handler, p Payload, reliable bool) {
	if s.drv != dst.drv {
		panic("parsim: send across drivers")
	}
	if h <= 0 || int(h) > len(s.drv.handlers) {
		panic(fmt.Sprintf("parsim: send of unregistered handler %d", h))
	}
	if min := s.EarliestTo(dst); at < min {
		panic(fmt.Sprintf("parsim: send %d->%d at %d violates edge bound %d from now %d",
			s.id, dst.id, at, min, s.eng.Now()))
	}
	l := s.link(dst.id)
	// The sequence advances per attempt, dropped or not: it is the drop
	// coin's key, so consecutive attempts must draw independently.
	l.seq++
	if l.faults != 0 {
		delay, delays, lost := s.drv.fate(l, s.id, dst.id, s.eng.Now(), l.seq, reliable)
		s.delayed += delays
		if lost {
			s.dropped++
			return
		}
		at += delay
	}
	if len(l.out) == 0 {
		s.dirty = append(s.dirty, int32(dst.id))
	}
	// Fill the new slot field by field: building the message elsewhere
	// and copying it in costs a store-forwarding stall per send.
	n := len(l.out)
	l.out = slices.Grow(l.out, 1)[:n+1]
	m := &l.out[n]
	m.at, m.src, m.h, m.p = at, int32(s.id), h, p
}

// link returns the pair record for destination dst, widening the row to
// the current fleet first if needed (declarations and setup-time sends
// land before Run sizes every row for the final fleet).
func (s *Shard) link(dst int) *link {
	if dst >= len(s.links) {
		s.growRow(len(s.drv.shards))
	}
	return &s.links[dst]
}

// growRow widens the link row to n destinations, preserving anything
// already declared or queued.
func (s *Shard) growRow(n int) {
	s.links = append(s.links, make([]link, n-len(s.links))...)
}

// fate runs a departure at depart through the pair's fault windows in
// declaration order: it returns the total injected delay, how many
// windows delayed the message, and whether a window dropped it (a
// reliable message is never dropped). A dropped message stops at the
// window that dropped it. Every window draws the same coin, keyed by
// (seed, src, dst, key), so the fate is a pure function of its inputs.
func (d *Driver) fate(l *link, src, dst int, depart event.Time, key uint64, reliable bool) (delay event.Time, delays int, lost bool) {
	for _, f := range d.faults[l.faults-1] {
		if !f.Active(depart) {
			continue
		}
		if !reliable && f.DropProb > 0 && edgeCoin(f.Seed, src, dst, key) < f.DropProb {
			return delay, delays, true
		}
		if f.Delay > 0 {
			delay += f.Delay
			delays++
		}
	}
	return delay, delays, false
}

// Fate returns what the fault windows of the pair src->dst do to a
// message departing at depart for the earliest instant the edge allows
// (EarliestTo at that departure), with its drop coin drawn under key:
// the instant it arrives, or lost if a window drops it. It is a pure
// function of the immutable fault schedule, so any shard may call it
// during Run, and it counts nothing in Stats. Send draws its coin the
// same way, keyed by the pair's send sequence, which counts up from 1;
// keys for messages a caller computes instead of sending should stay
// clear of that range.
func (d *Driver) Fate(src, dst *Shard, depart event.Time, key uint64) (arrive event.Time, lost bool) {
	var l *link
	if dst.id < len(src.links) {
		l = &src.links[dst.id]
	}
	arrive = depart + d.lookahead
	if d.horizons {
		if l == nil || l.class == 0 {
			panic(fmt.Sprintf("parsim: no edge declared from shard %d to %d", src.id, dst.id))
		}
		arrive = d.classes[l.class-1].arrival(depart)
	}
	if l != nil && l.faults != 0 {
		delay, _, lost := d.fate(l, src.id, dst.id, depart, key, false)
		return arrive + delay, lost
	}
	return arrive, false
}

// EdgeFaults returns the fault windows AddEdgeFault scheduled on the
// pair src->dst, in declaration order; nil if there are none. Like
// Fate it reads only the immutable fault schedule, so any shard may
// call it during Run. The slice is the driver's own: callers must not
// modify it.
func (d *Driver) EdgeFaults(src, dst *Shard) []EdgeFault {
	if dst.id < len(src.links) {
		if f := src.links[dst.id].faults; f != 0 {
			return d.faults[f-1]
		}
	}
	return nil
}

// SendAfter sends message h with payload p to dst, delivered d after
// the sending shard's current time. d must be at least the driver's
// lookahead.
func (s *Shard) SendAfter(dst *Shard, d event.Time, h Handler, p Payload) {
	s.Send(dst, s.eng.Now()+d, h, p)
}

// EarliestTo returns the earliest timestamp a message from s may carry
// to dst right now — the Send contract. With declared edges this is the
// edge's arrival bound (and sending on an undeclared pair panics: the
// horizon computation proved shards independent assuming messages only
// flow on declared edges); otherwise it is now + the uniform lookahead.
func (s *Shard) EarliestTo(dst *Shard) event.Time {
	if !s.drv.horizons {
		return s.eng.Now() + s.drv.lookahead
	}
	if dst.id < len(s.links) {
		if c := s.links[dst.id].class; c != 0 {
			return s.drv.classes[c-1].arrival(s.eng.Now())
		}
	}
	panic(fmt.Sprintf("parsim: no edge declared from shard %d to %d", s.id, dst.id))
}

// Driver owns the shards and advances them window by window.
type Driver struct {
	lookahead event.Time
	workers   int
	shards    []*Shard
	ran       bool
	stats     Stats

	// handlers[h-1] runs message kind h (see Handle). Registration ends
	// at Run; during Run every goroutine only reads it.
	handlers []func(dst *Shard, src int, p Payload)

	// Declared-edge state. classes holds each distinct declared latency
	// once; links name their class by index. faults holds the stacked
	// fault windows of each faulty pair, named likewise.
	horizons bool
	classes  []EdgeLatency
	faults   [][]EdgeFault

	// Horizon-pass state (horizon mode), built once at Run. The out-
	// edges are a two-level CSR over interned groups: source u's latency-
	// class groups are groups[outGroups[k]] for k in
	// groupStart[u]:groupStart[u+1], and a group's destinations are
	// adj[lo:hi]. Sources with the same class and destination list share
	// one group. relaxed[g] is the pass in which group g last relaxed.
	// minFixed is the least Fixed latency of any class.
	// bound/horizon/settled and the heap are the per-barrier scratch.
	groupStart []int32
	outGroups  []int32
	groups     []group
	adj        []int32
	relaxed    []uint64
	pass       uint64
	minFixed   event.Time
	bound      []event.Time
	horizon    []event.Time
	settled    []bool
	heap       boundHeap

	// next[i] is shard i's earliest pending event time, inf if none, in
	// both modes: filled at Run, then kept exact by barrier.
	next []event.Time

	// Window state shared with the helper pool (workers-1 persistent
	// goroutines, one wake channel each). Before a window the driver
	// writes every active shard's limit, publishes the active slice in
	// window and resets cursor; the send on a helper's wake channel
	// orders those writes before the helper's reads. Shards are claimed
	// by atomic increments of cursor, so each runs exactly once whichever
	// goroutine takes it, and wg.Done (once per woken helper, not per
	// shard) orders every engine write before the driver's barrier; a
	// helper also calls it once on exit, which stopPool waits for.
	// wakes counts wake sends over the run (driver goroutine only).
	wake   []chan struct{}
	window []*Shard
	cursor atomic.Int64
	wg     sync.WaitGroup
	wakes  int

	// Barrier scratch, touched only by the driver goroutine: the
	// destinations with mail this barrier.
	touched []int32
}

// group is one latency class's destination list, shared by every
// source whose out-edges of that class go to exactly those shards.
type group struct {
	lat    EdgeLatency
	lo, hi int32
}

// NewDriver returns a driver that advances shards in windows of the
// given lookahead using the given number of workers. workers <= 1 runs
// every window on the calling goroutine — the serial fallback, which
// executes the exact same canonical event order with zero goroutines.
func NewDriver(lookahead event.Time, workers int) *Driver {
	if lookahead <= 0 {
		panic("parsim: lookahead must be positive")
	}
	if workers < 1 {
		workers = 1
	}
	return &Driver{lookahead: lookahead, workers: workers}
}

// Stats describes a finished run's window structure — the driver-level
// evidence of how much concurrency the simulation exposed. AvgActive is
// the mean number of shards runnable per window: the available
// parallelism, and (clamped by the worker count and host cores) the
// wall-clock speedup bound. It is a property of the simulation, not the
// host, so it is byte-identical across worker counts.
type Stats struct {
	Windows   int // barriers executed
	MaxActive int // most shards runnable in one window
	// Hist is the per-window active-shard histogram: Hist[k] counts the
	// windows in which exactly k shards were runnable (index 0 unused).
	// The mean hides bimodal runs — a fleet that alternates all-shards
	// windows with long strings of hub-only windows averages respectably
	// while the workers idle most barriers; the histogram makes those
	// hub-bound windows visible.
	Hist      []int
	activeSum int
	// Dropped and Delayed count messages degraded by edge faults over
	// the whole run (zero — and unrendered — without faults).
	Dropped int
	Delayed int
	// Delivered counts the cross-shard messages the barriers handed to
	// their destinations over the run.
	Delivered int
}

// AvgActive returns the mean runnable shards per window.
func (s Stats) AvgActive() float64 {
	if s.Windows == 0 {
		return 0
	}
	return float64(s.activeSum) / float64(s.Windows)
}

// String renders the window structure compactly, histogram included:
// "windows=42 avg-active=3.20 max=8 hist[1]=12 hist[8]=30" (zero
// buckets elided).
func (s Stats) String() string {
	out := fmt.Sprintf("windows=%d avg-active=%.2f max=%d", s.Windows, s.AvgActive(), s.MaxActive)
	for k, n := range s.Hist {
		if n > 0 {
			out += fmt.Sprintf(" hist[%d]=%d", k, n)
		}
	}
	if s.Dropped > 0 || s.Delayed > 0 {
		out += fmt.Sprintf(" dropped=%d delayed=%d", s.Dropped, s.Delayed)
	}
	return out
}

// record tallies one window with the given active-shard count.
func (d *Driver) record(active int) {
	d.stats.Windows++
	d.stats.activeSum += active
	if active > d.stats.MaxActive {
		d.stats.MaxActive = active
	}
	if d.stats.Hist == nil {
		d.stats.Hist = make([]int, len(d.shards)+1)
	}
	d.stats.Hist[active]++
}

// Stats returns the run's window statistics (zero before Run).
func (d *Driver) Stats() Stats { return d.stats }

// Lookahead returns the window width.
func (d *Driver) Lookahead() event.Time { return d.lookahead }

// Workers returns the configured worker count.
func (d *Driver) Workers() int { return d.workers }

// AddShard creates a new shard. All shards must be added before Run.
func (d *Driver) AddShard() *Shard {
	if d.ran {
		panic("parsim: AddShard after Run")
	}
	s := &Shard{id: len(d.shards), drv: d, eng: &event.Engine{}}
	d.shards = append(d.shards, s)
	// Link rows are sized when a source first declares or sends, and
	// at Run for the rest, when the fleet is final — growing every row
	// per AddShard is quadratic in shard count and lands on the hot
	// path of callers that build a fabric per run.
	return s
}

// Handle registers one message kind and returns the Handler that names
// it in sends. fn runs on the destination shard at the message's
// delivery time, with the destination, the source shard's ID and the
// message's payload; like any event on that shard, it may touch only
// that shard's state. Register each kind once, before Run.
func (d *Driver) Handle(fn func(dst *Shard, src int, p Payload)) Handler {
	if d.ran {
		panic("parsim: Handle after Run")
	}
	if fn == nil {
		panic("parsim: nil handler")
	}
	d.handlers = append(d.handlers, fn)
	return Handler(len(d.handlers))
}

// SetEdge declares a directed communication edge with its latency class
// and switches the driver to per-shard conservative horizons. Once any
// edge is declared, messages may only flow on declared edges — the
// horizon computation's independence proofs assume exactly that — and
// every edge used by the simulation must be declared before Run.
// Declaring the same (src, dst) pair again replaces its latency.
func (d *Driver) SetEdge(src, dst *Shard, lat EdgeLatency) {
	if d.ran {
		panic("parsim: SetEdge after Run")
	}
	if src.drv != d || dst.drv != d {
		panic("parsim: SetEdge with foreign shard")
	}
	if src == dst {
		panic("parsim: self edges are implicit (a shard always reaches itself)")
	}
	if lat.Fixed <= 0 {
		panic("parsim: edge Fixed latency must be positive")
	}
	if lat.Grid < 0 {
		panic("parsim: negative edge Grid")
	}
	d.horizons = true
	c := slices.Index(d.classes, lat)
	if c < 0 {
		c = len(d.classes)
		d.classes = append(d.classes, lat)
	}
	src.link(dst.id).class = int32(c + 1)
}

// AddEdgeFault schedules a fault window on the directed pair src->dst.
// Multiple windows on one pair stack: a departure inside several
// windows draws each drop coin and accumulates each delay. Must be
// called before Run.
func (d *Driver) AddEdgeFault(src, dst *Shard, f EdgeFault) {
	if d.ran {
		panic("parsim: AddEdgeFault after Run")
	}
	if src.drv != d || dst.drv != d {
		panic("parsim: AddEdgeFault with foreign shard")
	}
	if src == dst {
		panic("parsim: AddEdgeFault on a self edge")
	}
	if f.DropProb < 0 || f.DropProb > 1 || f.Delay < 0 {
		panic("parsim: AddEdgeFault with bad drop probability or delay")
	}
	if f.DropProb == 0 && f.Delay == 0 {
		panic("parsim: AddEdgeFault that injects nothing (drop=0 delay=0)")
	}
	l := src.link(dst.id)
	if l.faults == 0 {
		d.faults = append(d.faults, nil)
		l.faults = int32(len(d.faults))
	}
	d.faults[l.faults-1] = append(d.faults[l.faults-1], f)
}

// Run drains every shard: windows open at the globally earliest pending
// event and close lookahead later; active shards execute concurrently
// (up to the worker count); the barrier then merges mailboxes in
// canonical order. It returns the latest shard time once no events or
// in-flight messages remain. Run may be called once.
func (d *Driver) Run() event.Time {
	d.prepare()
	d.deliver(d.shards) // mail sent before Run
	if d.workers > 1 {
		d.startPool()
		defer d.stopPool()
	}
	if d.horizons {
		d.runHorizons()
	} else {
		d.runUniform()
	}
	return d.finish()
}

// prepare freezes the fleet: it sizes every link row for the final
// shard count and, in horizon mode, builds the out-edge CSR and the
// horizon pass's scratch.
func (d *Driver) prepare() {
	if d.ran {
		panic("parsim: Run called twice")
	}
	d.ran = true
	n := len(d.shards)
	for _, s := range d.shards {
		if len(s.links) < n {
			s.growRow(n)
		}
	}
	d.next = make([]event.Time, n)
	for i, s := range d.shards {
		d.next[i] = s.nextAt()
	}
	if !d.horizons {
		return
	}
	d.groupStart = make([]int32, n+1)
	// Open-addressed intern table over (class, destination list) hashes:
	// 1 + group index, 0 = empty. At most n*classes groups, so a power of
	// two at least twice that keeps probes short.
	table := make([]int32, 1<<bits.Len(uint(2*n*len(d.classes))))
	mask := uint64(len(table) - 1)
	for u, s := range d.shards {
		for c, lat := range d.classes {
			lo := int32(len(d.adj))
			h := uint64(c) + fnvOffset
			for v := range s.links {
				if s.links[v].class == int32(c+1) {
					d.adj = append(d.adj, int32(v))
					h = (h ^ uint64(v)) * fnvPrime
				}
			}
			hi := int32(len(d.adj))
			if hi == lo {
				continue
			}
			dst := d.adj[lo:hi]
			i := h & mask
			for ; table[i] != 0; i = (i + 1) & mask {
				g := d.groups[table[i]-1]
				if g.lat == lat && slices.Equal(d.adj[g.lo:g.hi], dst) {
					break
				}
			}
			if table[i] == 0 {
				d.groups = append(d.groups, group{lat: lat, lo: lo, hi: hi})
				table[i] = int32(len(d.groups))
			} else {
				d.adj = d.adj[:lo] // an earlier source already holds this list
			}
			d.outGroups = append(d.outGroups, table[i]-1)
		}
		d.groupStart[u+1] = int32(len(d.outGroups))
	}
	d.relaxed = make([]uint64, len(d.groups))
	d.minFixed = inf
	for _, lat := range d.classes {
		d.minFixed = min(d.minFixed, lat.Fixed)
	}
	d.bound = make([]event.Time, n)
	d.horizon = make([]event.Time, n)
	d.settled = make([]bool, n)
	d.heap = make(boundHeap, 0, n)
}

// finish sums the per-shard fault tallies into Stats and returns the
// latest shard time.
func (d *Driver) finish() event.Time {
	var end event.Time
	for _, s := range d.shards {
		if now := s.eng.Now(); now > end {
			end = now
		}
		d.stats.Dropped += s.dropped
		d.stats.Delayed += s.delayed
	}
	return end
}

// runUniform is the flat-fabric window loop: every window opens at the
// globally earliest pending event and closes a uniform lookahead later.
func (d *Driver) runUniform() {
	active := make([]*Shard, 0, len(d.shards))
	for {
		start := slices.Min(d.next)
		if start == inf {
			break
		}
		deadline := start + d.lookahead - 1
		active = active[:0]
		for i, t := range d.next {
			if t <= deadline {
				s := d.shards[i]
				s.limit = deadline
				active = append(active, s)
			}
		}
		d.record(len(active))
		d.runWindow(active)
		d.barrier(active)
	}
}

// runHorizons is the declared-edge window loop. Each barrier computes,
// per shard, a conservative horizon — the earliest instant any message
// could still reach it — and lets every shard execute all events
// strictly before its own horizon (see computeHorizons). All inputs are
// simulated-time facts, so the window structure (and Stats) is byte-
// identical at every worker count.
func (d *Driver) runHorizons() {
	active := make([]*Shard, 0, len(d.shards))
	for d.computeHorizons() {
		active = active[:0]
		for i, s := range d.shards {
			if d.next[i] < d.horizon[i] {
				s.limit = d.horizon[i] - 1 // runShard's bound is inclusive
				active = append(active, s)
			}
		}
		d.record(len(active))
		d.runWindow(active)
		d.barrier(active)
	}
}

// barrier closes a window: it refreshes the next-event time of every
// shard that ran, then delivers the mail they sent, which refreshes the
// destinations'. Only a shard that ran or received mail can have a new
// next event, so next stays exact at the cost of the window's traffic.
func (d *Driver) barrier(active []*Shard) {
	for _, s := range active {
		d.next[s.id] = s.nextAt()
	}
	d.deliver(active)
}

// nextAt returns the time of the shard's earliest pending event, or inf.
func (s *Shard) nextAt() event.Time {
	if t, ok := s.eng.NextAt(); ok {
		return t
	}
	return inf
}

// computeHorizons fills horizon from next for one barrier and reports
// whether any shard has a pending event. bound[v] is the earliest
// instant any event could occur on v, own or induced: the least of
// next[v] and arrival(bound[u]) over every edge u->v. horizon[v] is the
// earliest possible external influence on v — the same minimum without
// next[v] — and events strictly before it are causally independent of
// every other shard.
//
// Edges are FIFO (arrival is monotone) and strictly advance time
// (arrival(t) > t), so bounds form a shortest-path problem with non-
// negative, time-dependent edge costs and settle in one label-setting
// (Dijkstra) pass: shards leave a (bound, shard) min-heap in bound
// order, and a settled bound is final. Each settled shard relaxes its
// out-edges one group at a time — one arrival per latency class, not
// per edge. Shards with no pending event and no finite bound are never
// settled and relax nothing. The shard holding the globally earliest
// event always clears its own horizon, so every window makes progress.
//
// A group shared by several sources is relaxed only from the first of
// them to settle in a pass, and skipped after that. This is exact: pops
// come in nondecreasing bound order and arrival is monotone, so a later
// source's arrivals over the same class and destinations are no earlier
// and lower no bound or horizon (no source is in its own group, since
// self edges are illegal). The relaxed stamps are per pass, so every
// pass relaxes each group it reaches afresh.
//
// Only the horizons of shards with a pending event decide the window,
// so the pass stops as soon as none of them can fall further: once all
// are finite, their largest value caps them, and every later relaxation
// arrives at least minFixed after a bound no smaller than the one being
// popped. On a dense mesh that ends the pass after a few settles instead
// of relaxing every edge. The bound and horizon of shards with no
// pending event are then left unfinished; nothing reads them.
func (d *Driver) computeHorizons() bool {
	h := d.heap[:0]
	for i, t := range d.next {
		if t != inf {
			h.push(t, int32(i))
		}
		d.bound[i], d.horizon[i], d.settled[i] = t, inf, false
	}
	unreached := len(h) // pending shards whose horizon is still inf
	if unreached == 0 {
		return false
	}
	d.pass++
	next, bound, horizon := d.next, d.bound, d.horizon
	limit := inf // once unreached is 0: the largest pending horizon
	for len(h) > 0 {
		b, u := h.pop()
		if b+d.minFixed >= limit {
			break
		}
		if d.settled[u] {
			continue // stale entry: u settled at a smaller bound
		}
		d.settled[u] = true
		for _, gi := range d.outGroups[d.groupStart[u]:d.groupStart[u+1]] {
			if d.relaxed[gi] == d.pass {
				continue // relaxed from an earlier pop, whose bound was no later
			}
			d.relaxed[gi] = d.pass
			g := d.groups[gi]
			a := g.lat.arrival(b)
			for _, v := range d.adj[g.lo:g.hi] {
				if a < horizon[v] {
					if horizon[v] == inf && next[v] != inf {
						unreached--
					}
					horizon[v] = a
				}
				if a < bound[v] {
					bound[v] = a
					h.push(a, v)
				}
			}
		}
		if unreached == 0 && limit == inf {
			limit = 0
			for i, t := range next {
				if t != inf && horizon[i] > limit {
					limit = horizon[i]
				}
			}
		}
	}
	d.heap = h
	return true
}

// boundHeap is the horizon pass's binary min-heap of (bound, shard)
// entries. Each entry carries its own key: a shard's bound can fall
// while an older entry for it is still queued, and that entry must keep
// the key it was pushed with. Stale entries are skipped on pop.
type boundHeap []boundEntry

type boundEntry struct {
	at    event.Time
	shard int32
}

func (h *boundHeap) push(at event.Time, shard int32) {
	q := append(*h, boundEntry{at, shard})
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if q[p].at <= q[i].at {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
	*h = q
}

func (h *boundHeap) pop() (event.Time, int32) {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(q) {
			break
		}
		if c+1 < len(q) && q[c+1].at < q[c].at {
			c++
		}
		if q[i].at <= q[c].at {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	*h = q
	return top.at, top.shard
}

// runWindow executes every active shard up to its own limit (set by the
// window loop just before the call). Windows with one active shard, and
// serial drivers, run inline. Otherwise the driver wakes one helper per
// shard beyond its own, up to workers-1, and claims shards alongside
// them: a window costs one wake per helper and one barrier, whatever
// the number of shards. Shards are independent inside a window, so
// which goroutine runs which shard changes nothing.
func (d *Driver) runWindow(active []*Shard) {
	if d.workers == 1 || len(active) == 1 {
		for _, s := range active {
			s.run()
		}
		return
	}
	d.window = active
	d.cursor.Store(0)
	k := min(len(d.wake), len(active)-1)
	d.wakes += k
	d.wg.Add(k)
	for _, c := range d.wake[:k] {
		c <- struct{}{}
	}
	d.drain()
	d.wg.Wait()
}

// drain runs unclaimed shards of the published window until none is
// left.
func (d *Driver) drain() {
	w := d.window // read once: every claim moves cursor's cache line
	for {
		i := int(d.cursor.Add(1) - 1)
		if i >= len(w) {
			return
		}
		w[i].run()
	}
}

// run executes the shard's events up to its window limit.
func (s *Shard) run() {
	s.runs++
	runShard(s.eng, s.limit)
}

// runShard executes e's events up to and including deadline without
// padding the clock beyond the last executed event — unlike RunUntil,
// which advances to the deadline. Leaving the clock on the last event
// keeps shard times meaningful (Run's result is the true end of the
// simulation) and costs nothing: deliveries always land strictly after
// the window, so an un-padded clock can never cause a scheduling-in-
// the-past panic.
func runShard(e *event.Engine, deadline event.Time) {
	for {
		t, ok := e.NextAt()
		if !ok || t > deadline {
			return
		}
		e.Step()
	}
}

// startPool spawns the workers-1 persistent helpers. Each wake channel
// holds one slot: a helper has at most one wake outstanding, and the
// slot lets the driver post it without waiting for the helper to park.
func (d *Driver) startPool() {
	d.wake = make([]chan struct{}, d.workers-1)
	for i := range d.wake {
		c := make(chan struct{}, 1)
		d.wake[i] = c
		go func() {
			for range c {
				d.drain()
				d.wg.Done()
			}
			d.wg.Done()
		}()
	}
}

// stopPool closes every wake channel and returns once every helper has
// exited.
func (d *Driver) stopPool() {
	d.wg.Add(len(d.wake))
	for _, c := range d.wake {
		close(c)
	}
	d.wg.Wait()
}

// deliver is the barrier's mailbox merge: every destination's incoming
// messages, gathered across all sources, are merged in canonical (at,
// src, send order) order and accepted by the destination in that order,
// and the destination's next-event time is lowered to the earliest of
// them. Acceptance order fixes the engine-level tie-break, so
// equal-timestamp deliveries execute in source-shard order on every run
// regardless of worker count.
//
// Only pairs that carried mail are visited: each source's dirty list
// names the destinations its outboxes filled since the last barrier,
// and only srcs can have sent — every shard before the first window,
// then the shards that ran in the last one. Regrouping their lists by
// destination costs one step per source plus one per dirty pair.
// Destinations are merged in first-touched order, and that order changes
// nothing: engines are private, and each destination's batch is gathered
// from outboxes kept in send order and stable-sorted by (at, src).
// Messages equal under that key share a source, so they keep their send
// order whichever order the sources were gathered in.
func (d *Driver) deliver(srcs []*Shard) {
	for _, src := range srcs {
		for _, dst := range src.dirty {
			to := d.shards[dst]
			if len(to.inbox) == 0 {
				d.touched = append(d.touched, dst)
			}
			to.inbox = append(to.inbox, int32(src.id))
		}
		src.dirty = src.dirty[:0]
	}
	for _, id := range d.touched {
		dst := d.shards[id]
		// Gather into the first sender's outbox, which keeps the grown
		// capacity: a destination with one sender is sorted where its mail
		// already lies.
		first := &d.shards[dst.inbox[0]].links[id]
		batch := first.out
		for _, src := range dst.inbox[1:] {
			l := &d.shards[src].links[id]
			batch = append(batch, l.out...)
			clear(l.out) // drop the payload refs; keep the capacity
			l.out = l.out[:0]
		}
		first.out = batch[:0]
		dst.inbox = dst.inbox[:0]
		slices.SortStableFunc(batch, cmpMessage)
		d.stats.Delivered += len(batch)
		dst.eng.Reserve(len(batch))
		for i := range batch {
			dst.accept(&batch[i])
		}
		d.next[id] = min(d.next[id], batch[0].at)
		clear(batch) // drop the payload refs; keep the capacity
	}
	d.touched = d.touched[:0]
}

// accept queues one merged message on its destination s: the message
// is copied into an idle envelope of s, and the envelope's run func is
// scheduled on s's engine at the message's time.
func (s *Shard) accept(m *message) {
	var e *envelope
	if n := len(s.free); n > 0 {
		e, s.free = s.free[n-1], s.free[:n-1]
	} else {
		e = &envelope{s: s}
		e.run = e.open
	}
	e.src, e.h, e.p = m.src, m.h, m.p
	s.eng.At(m.at, e.run)
}

// envelope is one delivery slot of a shard: a message waiting on the
// shard's engine. The shard keeps its envelopes for reuse, so a warm
// delivery allocates nothing.
type envelope struct {
	s   *Shard
	src int32
	h   Handler
	p   Payload
	run func() // open, built once per envelope
}

// open runs the message's handler, after returning the envelope to its
// shard's free list.
func (e *envelope) open() {
	s, src, h, p := e.s, e.src, e.h, e.p
	e.p.Ref = nil // do not pin the payload reference
	s.free = append(s.free, e)
	s.drv.handlers[h-1](s, int(src), p)
}
