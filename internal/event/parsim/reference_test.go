package parsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mlimp/internal/event"
)

// The reference barrier is the oracle for the differential tests: the
// direct formulation the driver must agree with, whatever the traffic —
// a Bellman-Ford fixpoint over every declared edge followed by a
// separate horizon pass, and a mailbox merge that probes every
// (src, dst) pair.

// refEdges applies SetEdge's replace-on-redeclare rule to the recorded
// calls, as the old driver's edge list did.
func refEdges(decl []declEdge) []declEdge {
	var edges []declEdge
	for _, e := range decl {
		found := false
		for i := range edges {
			if edges[i].src == e.src && edges[i].dst == e.dst {
				edges[i].lat = e.lat
				found = true
			}
		}
		if !found {
			edges = append(edges, e)
		}
	}
	return edges
}

// refFixpoint returns bound and horizon for the given next-event times:
// relax every edge until stable, then take each shard's min arrival
// over its in-edges.
func refFixpoint(next []event.Time, edges []declEdge) (bound, horizon []event.Time) {
	n := len(next)
	bound = slices.Clone(next)
	for pass := 0; pass < n; pass++ {
		changed := false
		for _, e := range edges {
			if bound[e.src] == inf {
				continue
			}
			if a := e.lat.arrival(bound[e.src]); a < bound[e.dst] {
				bound[e.dst] = a
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	horizon = make([]event.Time, n)
	for i := range horizon {
		horizon[i] = inf
	}
	for _, e := range edges {
		if bound[e.src] == inf {
			continue
		}
		if a := e.lat.arrival(bound[e.src]); a < horizon[e.dst] {
			horizon[e.dst] = a
		}
	}
	return bound, horizon
}

// refDeliver is the O(shards²) barrier merge: every destination probes
// every source's outbox. It also empties the dirty lists, which only the
// traffic-proportional merge reads.
func refDeliver(d *Driver) {
	var batch []message
	for dstID, dst := range d.shards {
		batch = batch[:0]
		for _, src := range d.shards {
			if pending := src.links[dstID].out; len(pending) > 0 {
				batch = append(batch, pending...)
				clear(pending)
				src.links[dstID].out = pending[:0]
			}
		}
		if len(batch) == 0 {
			continue
		}
		slices.SortStableFunc(batch, cmpMessage)
		d.stats.Delivered += len(batch)
		dst.eng.Reserve(len(batch))
		for i := range batch {
			dst.accept(&batch[i])
		}
	}
	for _, s := range d.shards {
		s.dirty = s.dirty[:0]
	}
}

// refRun drives d with the reference barrier. It shares Run's set-up,
// tear-down and window executor, so only the barrier differs.
func refRun(d *Driver, decl []declEdge) event.Time {
	d.prepare()
	if d.workers > 1 {
		d.startPool()
		defer d.stopPool()
	}
	edges := refEdges(decl)
	next := make([]event.Time, len(d.shards))
	var active []*Shard
	for {
		refDeliver(d)
		any := false
		for i, s := range d.shards {
			if t, ok := s.eng.NextAt(); ok {
				next[i], any = t, true
			} else {
				next[i] = inf
			}
		}
		if !any {
			break
		}
		active = active[:0]
		_, horizon := refFixpoint(next, edges)
		for i, s := range d.shards {
			if next[i] < horizon[i] {
				s.limit = horizon[i] - 1
				active = append(active, s)
			}
		}
		d.record(len(active))
		d.runWindow(active)
	}
	return d.finish()
}

// TestBarrierMatchesReference runs every seeded random fleet, in every
// shape (random graphs with and without a twin block, and the one-hop
// mesh) and at workers 1/2/4, once with the driver's barrier and once
// with the reference
// barrier: every shard's execution log (which pins each window's active
// set and limits), the Stats (histogram, drops and delays included) and
// the end time must agree.
func TestBarrierMatchesReference(t *testing.T) {
	seeds := int64(160)
	if testing.Short() {
		seeds = 40
	}
	shapes := []struct{ mesh, twins bool }{{false, false}, {false, true}, {true, false}}
	for seed := int64(1); seed <= seeds; seed++ {
		for _, sh := range shapes {
			for _, workers := range []int{1, 2, 4} {
				got := buildRandom(seed, sh.mesh, sh.twins, workers)
				gotEnd := got.d.Run()
				ref := buildRandom(seed, sh.mesh, sh.twins, workers)
				refEnd := refRun(ref.d, ref.decl)
				where := fmt.Sprintf("seed=%d mesh=%v twins=%v workers=%d", seed, sh.mesh, sh.twins, workers)
				for s := range ref.logs {
					if !reflect.DeepEqual(got.logs[s], ref.logs[s]) {
						t.Fatalf("%s: shard %d log diverges from the reference:\n got %v\nwant %v",
							where, s, got.logs[s], ref.logs[s])
					}
				}
				if !reflect.DeepEqual(got.d.Stats(), ref.d.Stats()) {
					t.Fatalf("%s: stats %+v, reference %+v", where, got.d.Stats(), ref.d.Stats())
				}
				if gotEnd != refEnd {
					t.Fatalf("%s: end %d, reference %d", where, gotEnd, refEnd)
				}
			}
		}
	}
}

// TestHorizonsMatchFixpoint checks one horizon pass against the
// reference fixpoint on many random static states: larger graphs than
// the run tests, sparse and full meshes, every class mixed in, heavy
// equal-time ties, idle shards, and redeclared pairs. Seeds past 400 add
// a twin block (see twinEdges), so sources share out-edge groups.
func TestHorizonsMatchFixpoint(t *testing.T) {
	for seed := int64(1); seed <= 600; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		d := NewDriver(1)
		shards := make([]*Shard, n)
		for i := range shards {
			shards[i] = d.AddShard()
		}
		var decl []declEdge
		p := rng.Float64() * 0.4
		if rng.Intn(4) == 0 {
			p = 1
		}
		var block []declEdge
		twin := make([]bool, n)
		if seed > 400 {
			block, twin = twinEdges(rand.New(rand.NewSource(-seed)), n, -1)
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u == v || twin[u] || rng.Float64() >= p {
					continue
				}
				for k := 1 + rng.Intn(2); k > 0; k-- { // a second call redeclares
					lat := randClasses[rng.Intn(len(randClasses))]
					d.SetEdge(shards[u], shards[v], lat)
					decl = append(decl, declEdge{src: u, dst: v, lat: lat})
				}
			}
		}
		for _, e := range block {
			d.SetEdge(shards[e.src], shards[e.dst], e.lat)
			decl = append(decl, e)
		}
		if len(decl) == 0 {
			d.SetEdge(shards[0], shards[1], randClasses[0])
			decl = append(decl, declEdge{src: 0, dst: 1, lat: randClasses[0]})
		}
		next := make([]event.Time, n)
		for i, s := range shards {
			next[i] = inf
			if rng.Intn(3) != 0 {
				next[i] = event.Time(rng.Intn(12)) * hop / 2
				s.Engine().At(next[i], func() {})
			}
		}
		d.prepare()
		_, horizon := refFixpoint(next, refEdges(decl))
		// A second pass over the same state must agree with the first:
		// nothing a pass records may carry into the next.
		for pass := 1; pass <= 2; pass++ {
			any := d.computeHorizons()
			if want := slices.Min(next) != inf; any != want {
				t.Fatalf("seed %d: any=%v, want %v", seed, any, want)
			}
			if !any {
				break
			}
			// Only pending shards' horizons decide a window; the pass may
			// stop before the rest are final.
			if !reflect.DeepEqual(d.next, next) {
				t.Fatalf("seed %d: next %v, want %v", seed, d.next, next)
			}
			for i := range next {
				if next[i] != inf && d.horizon[i] != horizon[i] {
					t.Fatalf("seed %d pass %d (%d shards, %d edges): shard %d horizon %d, want %d\n next %v\nhorizon %v\n   want %v",
						seed, pass, n, len(decl), i, d.horizon[i], horizon[i], next, d.horizon, horizon)
				}
			}
		}
	}
}
