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
	var pong func(spoke int, round int) func()
	pong = func(spoke, round int) func() {
		return func() {
			tr.log(0, hub.Engine().Now(), fmt.Sprintf("pong-%d-%d", spoke, round))
			if round < depth {
				sp := shards[spoke]
				hub.SendAfter(sp, hop, func() {
					tr.log(spoke, sp.Engine().Now(), fmt.Sprintf("ping-%d", round+1))
					sp.SendAfter(hub, hop, pong(spoke, round+1))
				})
			}
		}
	}
	for i := 1; i < nShards; i++ {
		i := i
		sp := shards[i]
		// Stagger local start times so windows overlap several shards.
		sp.Engine().At(event.Time(i)*event.Microsecond, func() {
			tr.log(i, sp.Engine().Now(), "start")
			sp.SendAfter(hub, hop, pong(i, 0))
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
		const n = 6
		for i := 1; i <= n; i++ {
			i := i
			sp := d.AddShard()
			// All spokes execute at t=0 and send for delivery at exactly hop.
			sp.Engine().At(0, func() {
				sp.Send(hub, hop, func() { order = append(order, i) })
			})
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
	a.Engine().At(0, func() {
		a.Send(b, hop, func() { got = append(got, "first") })
		a.Send(b, hop, func() { got = append(got, "second") })
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
	a.Send(b, hop, func() { fired = true })
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
	a.Engine().At(hop, func() {
		defer func() {
			if recover() == nil {
				t.Error("Send inside the lookahead window did not panic")
			}
		}()
		a.Send(b, a.Engine().Now()+hop-1, func() {})
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
// disambiguated by send sequence. The canonical (at, src, seq) merge
// must produce the same total order at any worker count.
func TestThreeWayFanInTies(t *testing.T) {
	var want []string
	for _, workers := range []int{1, 2, 4} {
		d := NewDriver(hop, workers)
		dst := d.AddShard()
		srcs := []*Shard{d.AddShard(), d.AddShard(), d.AddShard()}
		var got []string
		// Reverse shard order to prove arrival order is canonical, not
		// send-call order; two messages per source at one instant probe
		// the (at, src) -> seq tie-break.
		for i := len(srcs) - 1; i >= 0; i-- {
			i := i
			sp := srcs[i]
			sp.Engine().At(0, func() {
				sp.Send(dst, hop, func() { got = append(got, fmt.Sprintf("s%d-a", i)) })
				sp.Send(dst, hop, func() { got = append(got, fmt.Sprintf("s%d-b", i)) })
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
	for r := 0; r < regions; r++ {
		hubs[r] = d.AddShard()
		for k := 0; k < spokesPer; k++ {
			sp := d.AddShard()
			d.SetEdge(hubs[r], sp, EdgeLatency{Fixed: hop})
			d.SetEdge(sp, hubs[r], EdgeLatency{Fixed: hop})
			spoke := sp
			var ping func(round int) func()
			ping = func(round int) func() {
				return func() {
					tr.log(spoke.id, spoke.Engine().Now(), fmt.Sprintf("ping-%d", round))
					if round < rounds {
						spoke.SendAfter(hubs[r], hop, func() {
							hub := hubs[r]
							tr.log(hub.id, hub.Engine().Now(), fmt.Sprintf("ack-%d-%d", spoke.id, round))
							hub.SendAfter(spoke, hop, ping(round+1))
						})
					}
				}
			}
			sp.Engine().At(event.Time(k+1)*event.Microsecond, ping(0))
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
	for i, h := range hubs {
		i, h := i, h
		var tick func(k int) func()
		tick = func(k int) func() {
			return func() {
				for j, peer := range hubs {
					if peer == h {
						continue
					}
					j := j
					h.Send(peer, h.EarliestTo(peer), func() {
						tr.log(peer.id, peer.Engine().Now(), fmt.Sprintf("belief-%d", i))
					})
					_ = j
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
	a.Engine().At(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("Send on undeclared edge did not panic")
			}
		}()
		a.Send(c, a.Engine().Now()+hop, func() {})
	})
	d.Run()
}

// TestSendAcrossDriversPanics: a shard may only send to shards of its
// own driver.
func TestSendAcrossDriversPanics(t *testing.T) {
	d := NewDriver(hop, 1)
	a := d.AddShard()
	foreign := NewDriver(hop, 1).AddShard()
	defer func() {
		if recover() == nil {
			t.Error("Send to another driver's shard did not panic")
		}
	}()
	a.Send(foreign, hop, func() {})
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
		a.Send(b, hop, func() { got = append(got, "b") })
		c := d.AddShard()
		if horizons {
			d.SetEdge(a, c, EdgeLatency{Fixed: 2 * hop})
		}
		a.Send(c, 2*hop, func() { got = append(got, "c") })
		a.Send(b, hop, func() { got = append(got, "b2") })
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
	a.Engine().At(3*event.Microsecond, func() { // off-grid
		a.Send(b, a.EarliestTo(b), func() { arrivals = append(arrivals, b.Engine().Now()) })
	})
	a.Engine().At(grid, func() { // exactly on-grid
		a.Send(b, a.EarliestTo(b), func() { arrivals = append(arrivals, b.Engine().Now()) })
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
	// shard holding the token.
	var relay func(at *Shard, r int) func()
	relay = func(at *Shard, r int) func() {
		return func() {
			fired.Add(1)
			if r < rounds {
				next := shards[(at.id+1)%nShards]
				at.SendAfter(next, hop, relay(next, r+1))
			}
		}
	}
	for _, s := range shards {
		s.Engine().At(0, relay(s, 0))
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
				sh.Send(dst, sh.EarliestTo(dst)+event.Time(r.Intn(3))*hop, step(dst.id))
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
