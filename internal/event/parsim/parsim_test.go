package parsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"mlimp/internal/event"
)

const hop = 10 * event.Microsecond

// trace records (shard, at, label) triples in execution order per shard;
// per-shard traces are the observable artefact two runs must agree on.
type trace struct {
	perShard [][]string
}

func (tr *trace) log(shard int, at event.Time, label string) {
	tr.perShard[shard] = append(tr.perShard[shard], fmt.Sprintf("%d@%d:%s", shard, at, label))
}

// buildPingPong wires nShards spokes around shard 0 as a hub: every
// spoke fires rounds of local events and sends acks to the hub, the hub
// replies, bounded by depth. Returns the driver and the trace.
func buildPingPong(nShards, depth, workers int) (*Driver, *trace) {
	d := NewDriver(hop, workers)
	tr := &trace{perShard: make([][]string, nShards)}
	shards := make([]*Shard, nShards)
	for i := range shards {
		shards[i] = d.AddShard()
	}
	hub := shards[0]
	// A pong carries the round it answers; a ping, the round it starts.
	var ping, pong Handler
	pong = d.Handle(func(hub *Shard, spoke int, p Payload) {
		round := int(p.A)
		tr.log(0, hub.Engine().Now(), fmt.Sprintf("pong-%d-%d", spoke, round))
		if round < depth {
			hub.SendAfter(shards[spoke], hop, ping, Payload{A: int64(round + 1)})
		}
	})
	ping = d.Handle(func(sp *Shard, _ int, p Payload) {
		tr.log(sp.ID(), sp.Engine().Now(), fmt.Sprintf("ping-%d", p.A))
		sp.SendAfter(hub, hop, pong, p)
	})
	for i := 1; i < nShards; i++ {
		i := i
		sp := shards[i]
		// Stagger local start times so windows overlap several shards.
		sp.Engine().At(event.Time(i)*event.Microsecond, func() {
			tr.log(i, sp.Engine().Now(), "start")
			sp.SendAfter(hub, hop, pong, Payload{})
		})
	}
	return d, tr
}

func TestWorkerCountEquivalence(t *testing.T) {
	var want [][]string
	var wantStats Stats
	for _, workers := range []int{1, 2, 4, 8} {
		d, tr := buildPingPong(9, 12, workers)
		d.Run()
		if want == nil {
			want = tr.perShard
			wantStats = d.Stats()
			if wantStats.Windows == 0 || wantStats.MaxActive < 2 || wantStats.AvgActive() <= 1 {
				t.Fatalf("ping-pong exposed no parallelism: %+v", wantStats)
			}
			continue
		}
		if !reflect.DeepEqual(tr.perShard, want) {
			t.Fatalf("workers=%d trace diverges from workers=1", workers)
		}
		// Window structure is a property of the simulation, not the
		// worker count.
		if !reflect.DeepEqual(d.Stats(), wantStats) {
			t.Fatalf("workers=%d window stats %+v diverge from %+v", workers, d.Stats(), wantStats)
		}
	}
}

// TestDeliveryOrderAtTies sends messages from several shards that all
// arrive at the hub at the same instant; the canonical merge must order
// them by source shard regardless of worker count.
func TestDeliveryOrderAtTies(t *testing.T) {
	for _, workers := range []int{1, 4} {
		d := NewDriver(hop, workers)
		hub := d.AddShard()
		var order []int
		arrive := d.Handle(func(_ *Shard, src int, _ Payload) { order = append(order, src) })
		const n = 6
		for i := 1; i <= n; i++ {
			sp := d.AddShard()
			// All spokes execute at t=0 and send for delivery at exactly hop.
			sp.Engine().At(0, func() { sp.Send(hub, hop, arrive, Payload{}) })
		}
		d.Run()
		if len(order) != n {
			t.Fatalf("workers=%d: delivered %d of %d", workers, len(order), n)
		}
		for i := 1; i < len(order); i++ {
			if order[i] < order[i-1] {
				t.Fatalf("workers=%d: deliveries out of shard order: %v", workers, order)
			}
		}
	}
}

// TestPerPairFIFO checks that two messages from one shard to another at
// the same delivery time run in send order.
func TestPerPairFIFO(t *testing.T) {
	d := NewDriver(hop, 1)
	a, b := d.AddShard(), d.AddShard()
	var got []string
	labels := []string{"first", "second"}
	arrive := d.Handle(func(_ *Shard, _ int, p Payload) { got = append(got, labels[p.A]) })
	a.Engine().At(0, func() {
		a.Send(b, hop, arrive, Payload{A: 0})
		a.Send(b, hop, arrive, Payload{A: 1})
	})
	d.Run()
	if want := []string{"first", "second"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestSetupSendsDeliveredWithoutLocalEvents(t *testing.T) {
	d := NewDriver(hop, 2)
	a, b := d.AddShard(), d.AddShard()
	fired := false
	a.Send(b, hop, d.Handle(func(*Shard, int, Payload) { fired = true }), Payload{})
	end := d.Run()
	if !fired {
		t.Fatal("setup-time Send never delivered")
	}
	if end != hop {
		t.Fatalf("end time %d, want %d", end, hop)
	}
}

func TestLookaheadViolationPanics(t *testing.T) {
	d := NewDriver(hop, 1)
	a, b := d.AddShard(), d.AddShard()
	nop := d.Handle(func(*Shard, int, Payload) {})
	a.Engine().At(hop, func() {
		defer func() {
			if recover() == nil {
				t.Error("Send inside the lookahead window did not panic")
			}
		}()
		a.Send(b, a.Engine().Now()+hop-1, nop, Payload{})
	})
	d.Run()
}

func TestRunTwicePanics(t *testing.T) {
	d := NewDriver(hop, 1)
	d.AddShard()
	d.Run()
	defer func() {
		if recover() == nil {
			t.Error("second Run did not panic")
		}
	}()
	d.Run()
}

func TestEmptyRun(t *testing.T) {
	d := NewDriver(hop, 4)
	for i := 0; i < 3; i++ {
		d.AddShard()
	}
	if end := d.Run(); end != 0 {
		t.Fatalf("empty run ended at %d", end)
	}
}

// TestZeroLookaheadRejected: a non-positive lookahead would make every
// window empty-width; the constructor must reject it outright.
func TestZeroLookaheadRejected(t *testing.T) {
	for _, la := range []event.Time{0, -hop} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("lookahead %d accepted", la)
				}
			}()
			NewDriver(la, 1)
		}()
	}
}

// TestSingleShardMatchesSerialEngine runs the same event program on a
// bare event.Engine and on a one-shard driver: execution order, times,
// and the final clock must be byte-identical — the degenerate fleet is
// the serial engine.
func TestSingleShardMatchesSerialEngine(t *testing.T) {
	program := func(eng *event.Engine, log *[]string) {
		var tick func(round int) func()
		tick = func(round int) func() {
			return func() {
				*log = append(*log, fmt.Sprintf("%d@%d", round, eng.Now()))
				if round < 40 {
					eng.After(event.Time(round%7+1)*event.Microsecond, tick(round+1))
					if round%3 == 0 {
						eng.At(eng.Now(), func() {
							*log = append(*log, fmt.Sprintf("tie-%d@%d", round, eng.Now()))
						})
					}
				}
			}
		}
		eng.At(0, tick(0))
	}

	var serial []string
	ref := &event.Engine{}
	program(ref, &serial)
	ref.Run()

	var sharded []string
	d := NewDriver(hop, 4)
	s := d.AddShard()
	program(s.Engine(), &sharded)
	end := d.Run()

	if !reflect.DeepEqual(sharded, serial) {
		t.Fatalf("single-shard trace diverges from serial engine:\n%v\n%v", sharded, serial)
	}
	if end != ref.Now() {
		t.Fatalf("single-shard end %d, serial engine end %d", end, ref.Now())
	}
}

// TestThreeWayFanInTies: three source shards send to one destination so
// every message lands at the same instant, with same-(at,src) pairs
// disambiguated by send order. The canonical (at, src, send order) merge
// must produce the same total order at any worker count.
func TestThreeWayFanInTies(t *testing.T) {
	var want []string
	for _, workers := range []int{1, 2, 4} {
		d := NewDriver(hop, workers)
		dst := d.AddShard()
		srcs := []*Shard{d.AddShard(), d.AddShard(), d.AddShard()}
		var got []string
		arrive := d.Handle(func(_ *Shard, _ int, p Payload) {
			got = append(got, fmt.Sprintf("s%d-%c", p.A, 'a'+p.B))
		})
		// Reverse shard order to prove arrival order is canonical, not
		// send-call order; two messages per source at one instant probe
		// the (at, src) -> send order tie-break.
		for i := len(srcs) - 1; i >= 0; i-- {
			sp := srcs[i]
			sp.Engine().At(0, func() {
				sp.Send(dst, hop, arrive, Payload{A: int64(i), B: 0})
				sp.Send(dst, hop, arrive, Payload{A: int64(i), B: 1})
			})
		}
		d.Run()
		if want == nil {
			want = got
			exp := []string{"s0-a", "s0-b", "s1-a", "s1-b", "s2-a", "s2-b"}
			if !reflect.DeepEqual(got, exp) {
				t.Fatalf("merge order %v, want %v", got, exp)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d fan-in order %v diverges from %v", workers, got, want)
		}
	}
}

// buildHierarchy wires a two-level hub tree on declared edges: regions
// of spokes around regional hubs, hop-latency dispatch edges within a
// region, and a slow beacon grid between hub peers. Spokes run dense
// local work; hubs exchange summaries each beacon.
func buildHierarchy(regions, spokesPer, rounds, workers int) (*Driver, *trace) {
	const beacon = 50 * hop
	d := NewDriver(hop, workers)
	n := regions * (1 + spokesPer)
	tr := &trace{perShard: make([][]string, n)}
	hubs := make([]*Shard, regions)
	home := make([]*Shard, n) // each spoke's hub, by shard ID
	// A spoke pings its hub with the round number; the hub acks with the
	// next round.
	var ack, pingMsg Handler
	ping := func(spoke *Shard, round int) {
		tr.log(spoke.id, spoke.Engine().Now(), fmt.Sprintf("ping-%d", round))
		if round < rounds {
			spoke.SendAfter(home[spoke.id], hop, ack, Payload{A: int64(round)})
		}
	}
	ack = d.Handle(func(hub *Shard, spoke int, p Payload) {
		tr.log(hub.id, hub.Engine().Now(), fmt.Sprintf("ack-%d-%d", spoke, p.A))
		hub.SendAfter(d.shards[spoke], hop, pingMsg, Payload{A: p.A + 1})
	})
	pingMsg = d.Handle(func(spoke *Shard, _ int, p Payload) { ping(spoke, int(p.A)) })
	for r := 0; r < regions; r++ {
		hubs[r] = d.AddShard()
		for k := 0; k < spokesPer; k++ {
			sp := d.AddShard()
			home[sp.id] = hubs[r]
			d.SetEdge(hubs[r], sp, EdgeLatency{Fixed: hop})
			d.SetEdge(sp, hubs[r], EdgeLatency{Fixed: hop})
			sp.Engine().At(event.Time(k+1)*event.Microsecond, func() { ping(sp, 0) })
		}
	}
	for _, a := range hubs {
		for _, b := range hubs {
			if a != b {
				d.SetEdge(a, b, EdgeLatency{Fixed: hop, Grid: beacon})
			}
		}
	}
	// Each hub beacons a summary to every peer a few times.
	belief := d.Handle(func(peer *Shard, _ int, p Payload) {
		tr.log(peer.id, peer.Engine().Now(), fmt.Sprintf("belief-%d", p.A))
	})
	for i, h := range hubs {
		i, h := i, h
		var tick func(k int) func()
		tick = func(k int) func() {
			return func() {
				for _, peer := range hubs {
					if peer == h {
						continue
					}
					h.Send(peer, h.EarliestTo(peer), belief, Payload{A: int64(i)})
				}
				if k < 4 {
					h.Engine().After(beacon, tick(k+1))
				}
			}
		}
		h.Engine().At(beacon, tick(0))
	}
	return d, tr
}

// TestHorizonWorkerEquivalence: declared-edge mode must stay byte-
// identical across worker counts, stats included.
func TestHorizonWorkerEquivalence(t *testing.T) {
	var want [][]string
	var wantStats Stats
	for _, workers := range []int{1, 2, 4, 8} {
		d, tr := buildHierarchy(4, 3, 20, workers)
		d.Run()
		if want == nil {
			want, wantStats = tr.perShard, d.Stats()
			continue
		}
		if !reflect.DeepEqual(tr.perShard, want) {
			t.Fatalf("workers=%d hierarchy trace diverges from workers=1", workers)
		}
		if !reflect.DeepEqual(d.Stats(), wantStats) {
			t.Fatalf("workers=%d stats %v diverge from %v", workers, d.Stats(), wantStats)
		}
	}
}

// TestHorizonBeatsUniformWindows: the point of declared edges — spokes
// in different regions only interact through the slow beacon grid, so
// horizon mode must pack far more shards per window than hop-wide
// uniform windows would.
func TestHorizonBeatsUniformWindows(t *testing.T) {
	d, _ := buildHierarchy(4, 3, 20, 1)
	d.Run()
	st := d.Stats()
	if st.AvgActive() < 4 {
		t.Fatalf("hierarchy avg-active %.2f, want >= 4 (stats %v)", st.AvgActive(), st)
	}
	if len(st.Hist) == 0 {
		t.Fatalf("stats histogram missing: %v", st)
	}
	sum := 0
	for _, n := range st.Hist {
		sum += n
	}
	if sum != st.Windows {
		t.Fatalf("histogram sums to %d, want %d windows", sum, st.Windows)
	}
}

// TestUndeclaredEdgeSendPanics: once any edge is declared, messages may
// only flow on declared pairs.
func TestUndeclaredEdgeSendPanics(t *testing.T) {
	d := NewDriver(hop, 1)
	a, b, c := d.AddShard(), d.AddShard(), d.AddShard()
	d.SetEdge(a, b, EdgeLatency{Fixed: hop})
	nop := d.Handle(func(*Shard, int, Payload) {})
	a.Engine().At(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("Send on undeclared edge did not panic")
			}
		}()
		a.Send(c, a.Engine().Now()+hop, nop, Payload{})
	})
	d.Run()
}

// TestSendAcrossDriversPanics: a shard may only send to shards of its
// own driver.
func TestSendAcrossDriversPanics(t *testing.T) {
	d := NewDriver(hop, 1)
	a := d.AddShard()
	nop := d.Handle(func(*Shard, int, Payload) {})
	foreign := NewDriver(hop, 1).AddShard()
	defer func() {
		if recover() == nil {
			t.Error("Send to another driver's shard did not panic")
		}
	}()
	a.Send(foreign, hop, nop, Payload{})
}

// TestSetupMailSurvivesRowGrowth: mail queued before Run stays queued
// when later AddShard/SetEdge calls widen the sender's link row, and is
// delivered by the first barrier, in both modes.
func TestSetupMailSurvivesRowGrowth(t *testing.T) {
	for _, horizons := range []bool{false, true} {
		d := NewDriver(hop, 1)
		a, b := d.AddShard(), d.AddShard()
		if horizons {
			d.SetEdge(a, b, EdgeLatency{Fixed: hop})
		}
		var got []string
		labels := []string{"b", "c", "b2"}
		arrive := d.Handle(func(_ *Shard, _ int, p Payload) { got = append(got, labels[p.A]) })
		a.Send(b, hop, arrive, Payload{A: 0})
		c := d.AddShard()
		if horizons {
			d.SetEdge(a, c, EdgeLatency{Fixed: 2 * hop})
		}
		a.Send(c, 2*hop, arrive, Payload{A: 1})
		a.Send(b, hop, arrive, Payload{A: 2})
		d.Run()
		if want := []string{"b", "b2", "c"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("horizons=%v: delivered %v, want %v", horizons, got, want)
		}
	}
}

// TestGridEdgeBoundsDepartures: a beacon-grid edge quantises departures;
// sends before the grid instant arrive exactly Fixed after the grid
// tick, and sends exactly on the grid depart immediately.
func TestGridEdgeBoundsDepartures(t *testing.T) {
	const grid = 10 * hop
	d := NewDriver(hop, 1)
	a, b := d.AddShard(), d.AddShard()
	d.SetEdge(a, b, EdgeLatency{Fixed: hop, Grid: grid})
	var arrivals []event.Time
	arrive := d.Handle(func(dst *Shard, _ int, _ Payload) { arrivals = append(arrivals, dst.Engine().Now()) })
	a.Engine().At(3*event.Microsecond, func() { // off-grid
		a.Send(b, a.EarliestTo(b), arrive, Payload{})
	})
	a.Engine().At(grid, func() { // exactly on-grid
		a.Send(b, a.EarliestTo(b), arrive, Payload{})
	})
	d.Run()
	want := []event.Time{grid + hop, grid + hop}
	if !reflect.DeepEqual(arrivals, want) {
		t.Fatalf("beacon arrivals %v, want %v", arrivals, want)
	}
}

// TestParallelStress hammers the pool under -race: many shards, many
// rounds, counters verified against the closed-form total.
func TestParallelStress(t *testing.T) {
	const nShards, rounds = 16, 200
	d := NewDriver(hop, 8)
	shards := make([]*Shard, nShards)
	for i := range shards {
		shards[i] = d.AddShard()
	}
	var fired atomic.Int64
	// nShards tokens circulate a ring; every hop fires one event on the
	// shard holding the token, and the token carries its round.
	var token Handler
	relay := func(at *Shard, r int) {
		fired.Add(1)
		if r < rounds {
			at.SendAfter(shards[(at.id+1)%nShards], hop, token, Payload{A: int64(r + 1)})
		}
	}
	token = d.Handle(func(at *Shard, _ int, p Payload) { relay(at, int(p.A)) })
	for _, s := range shards {
		s.Engine().At(0, func() { relay(s, 0) })
	}
	d.Run()
	want := int64(nShards * (rounds + 1))
	if got := fired.Load(); got != want {
		t.Fatalf("fired %d events, want %d", got, want)
	}
}

// poolMark is what one event of a pool fleet observes: the window it ran
// in, its shard's run count, and the driver's wake count so far.
type poolMark struct{ window, runs, wakes int }

// buildPoolFleet wires a seeded fleet of 2-16 shards, on the uniform
// lookahead or a full mesh of prompt and slow edges, where every shard
// runs a budgeted program of local events and sends to random peers.
// Every event appends a poolMark to its shard's list.
func buildPoolFleet(seed int64, horizons bool, workers int) (*Driver, [][]poolMark) {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(15)
	d := NewDriver(hop, workers)
	shards := make([]*Shard, n)
	for i := range shards {
		shards[i] = d.AddShard()
	}
	if horizons {
		for _, u := range shards {
			for _, v := range shards {
				if u != v {
					d.SetEdge(u, v, randClasses[rng.Intn(2)])
				}
			}
		}
	}
	marks := make([][]poolMark, n)
	budget := make([]int, n)
	rngs := make([]*rand.Rand, n)
	var step func(s int) func()
	stepMsg := d.Handle(func(dst *Shard, _ int, _ Payload) { step(dst.id)() })
	step = func(s int) func() {
		return func() {
			sh := shards[s]
			marks[s] = append(marks[s], poolMark{d.stats.Windows, sh.runs, d.wakes})
			if budget[s] == 0 {
				return
			}
			budget[s]--
			r := rngs[s]
			if r.Intn(3) == 0 {
				sh.Engine().After(event.Time(r.Intn(3))*hop/2, step(s))
			}
			for k := r.Intn(3); k > 0; k-- {
				dst := shards[(s+1+r.Intn(n-1))%n]
				sh.Send(dst, sh.EarliestTo(dst)+event.Time(r.Intn(3))*hop, stepMsg, Payload{})
			}
		}
	}
	for i, s := range shards {
		rngs[i] = rand.New(rand.NewSource(seed*1000 + int64(i)))
		budget[i] = 5 + rng.Intn(30)
		s.Engine().At(event.Time(rng.Intn(4))*hop/2, step(i))
	}
	return d, marks
}

// TestPoolRunsEachActiveShardOnce checks the helper pool at workers
// 1/2/4/8: every shard runs exactly once in each window it is active in
// (each run executes at least one event, so its events see the run
// count step by one per window and never twice in one), the active
// counts rebuild the Stats histogram, and each window wakes exactly
// min(workers-1, active-1) helpers — none at one worker or one active
// shard.
func TestPoolRunsEachActiveShardOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		for _, horizons := range []bool{true, false} {
			for seed := int64(1); seed <= 40; seed++ {
				d, marks := buildPoolFleet(seed, horizons, workers)
				d.Run()
				where := fmt.Sprintf("workers=%d horizons=%v seed=%d", workers, horizons, seed)
				st := d.Stats()
				active := make([]int, st.Windows+1)
				wakes := make([]int, st.Windows+1)
				for w := range wakes {
					wakes[w] = -1
				}
				for s, ms := range marks {
					runs, last := 0, 0
					for _, m := range ms {
						if m.window != last {
							runs, last = runs+1, m.window
							active[m.window]++
						}
						if m.runs != runs {
							t.Fatalf("%s: shard %d in window %d is on run %d, want %d", where, s, m.window, m.runs, runs)
						}
						if wakes[m.window] >= 0 && wakes[m.window] != m.wakes {
							t.Fatalf("%s: window %d saw wake counts %d and %d", where, m.window, wakes[m.window], m.wakes)
						}
						wakes[m.window] = m.wakes
					}
					if got := d.shards[s].runs; got != runs {
						t.Fatalf("%s: shard %d ran %d times over %d windows", where, s, got, runs)
					}
				}
				hist := make([]int, len(d.shards)+1)
				prev := 0
				for w := 1; w <= st.Windows; w++ {
					hist[active[w]]++
					want := 0
					if workers > 1 {
						want = min(workers-1, active[w]-1)
					}
					if got := wakes[w] - prev; got != want {
						t.Fatalf("%s: window %d with %d active shards woke %d helpers, want %d",
							where, w, active[w], got, want)
					}
					prev = wakes[w]
				}
				if !reflect.DeepEqual(hist, st.Hist) {
					t.Fatalf("%s: active counts give histogram %v, Stats %v", where, hist, st.Hist)
				}
				if d.wakes != prev {
					t.Fatalf("%s: driver counted %d wakes, windows saw %d", where, d.wakes, prev)
				}
			}
		}
	}
}

// TestWarmSendAllocatesNothing: once the outbox, the destination's
// envelope pool and its engine queue have grown, a typed send, its
// barrier delivery and its handler run allocate nothing — the payload
// reference included.
func TestWarmSendAllocatesNothing(t *testing.T) {
	d := NewDriver(hop, 1)
	a, b := d.AddShard(), d.AddShard()
	var sum int64
	h := d.Handle(func(_ *Shard, _ int, p Payload) { sum += p.A + p.B })
	ref := &struct{ n int }{}
	d.prepare()
	srcs := []*Shard{a}
	round := func() {
		a.Send(b, b.Engine().Now()+hop, h, Payload{Ref: ref, A: 1, B: 2})
		d.deliver(srcs)
		b.Engine().Step()
	}
	round() // warm-up
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Fatalf("warm send + delivery allocates %v per message, want 0", n)
	}
	if want := int64(3 * 102); sum != want {
		t.Fatalf("handlers summed %d, want %d", sum, want)
	}
}

// buildLateEarlier wires a grid edge whose message is overtaken: shard a
// sends c a beacon-grid message in the first window, due at 11 hops;
// in the second window shard b, woken by a, sends c one message due two
// hops in and one due at the same 11 hops. The second barrier thus
// delivers an earlier time than mail already waiting on c. b has the
// lowest shard ID, so a single merge would order its 11-hop message
// before a's; across barriers a's message was inserted first and must
// still run first. c logs each message with the window its sender sent
// it in.
func buildLateEarlier(workers int) (*Driver, []declEdge, *[]string) {
	d := NewDriver(hop, workers)
	b, a, c := d.AddShard(), d.AddShard(), d.AddShard()
	decl := []declEdge{
		{src: a.id, dst: c.id, lat: EdgeLatency{Fixed: hop, Grid: 10 * hop}},
		{src: a.id, dst: b.id, lat: EdgeLatency{Fixed: hop}},
		{src: b.id, dst: c.id, lat: EdgeLatency{Fixed: hop}},
	}
	for _, e := range decl {
		d.SetEdge(d.shards[e.src], d.shards[e.dst], e.lat)
	}
	log := &[]string{}
	names := []string{"slow", "fast", "tie"}
	arrive := d.Handle(func(c *Shard, src int, p Payload) {
		*log = append(*log, fmt.Sprintf("%s from %d sent in w%d ran at %d", names[p.A], src, p.B, c.Engine().Now()))
	})
	poke := d.Handle(func(b *Shard, _ int, _ Payload) {
		w := int64(d.stats.Windows)
		b.Send(c, b.EarliestTo(c), arrive, Payload{A: 1, B: w})
		b.Send(c, 11*hop, arrive, Payload{A: 2, B: w})
	})
	a.Engine().At(1, func() {
		a.Send(c, a.EarliestTo(c), arrive, Payload{A: 0, B: int64(d.stats.Windows)})
		a.Send(b, a.EarliestTo(b), poke, Payload{})
	})
	return d, decl, log
}

// TestLaterBarrierEarlierTimeRunsFirst pins cross-barrier delivery on a
// grid edge at workers 1/2/4/8, against the reference barrier's merge:
// the message a later barrier delivers with an earlier time runs first,
// and the two messages due at one instant run in the order their
// barriers delivered them.
func TestLaterBarrierEarlierTimeRunsFirst(t *testing.T) {
	want := []string{
		fmt.Sprintf("fast from 0 sent in w2 ran at %d", 2*hop+1),
		fmt.Sprintf("slow from 1 sent in w1 ran at %d", 11*hop),
		fmt.Sprintf("tie from 0 sent in w2 ran at %d", 11*hop),
	}
	for _, workers := range []int{1, 2, 4, 8} {
		d, _, got := buildLateEarlier(workers)
		d.Run()
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("workers=%d: c ran\n%q\nwant\n%q", workers, *got, want)
		}
		ref, decl, refGot := buildLateEarlier(workers)
		refRun(ref, decl)
		if !reflect.DeepEqual(*refGot, want) {
			t.Fatalf("workers=%d: reference barrier ran\n%q\nwant\n%q", workers, *refGot, want)
		}
	}
}
