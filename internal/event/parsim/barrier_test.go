package parsim

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"mlimp/internal/event"
)

var update = flag.Bool("update", false, "rewrite testdata/horizons.golden from the current driver")

// declEdge is one SetEdge call as the test fleets record it.
type declEdge struct {
	src, dst int
	lat      EdgeLatency
}

// randFleet is one seeded random fleet: its driver, the SetEdge calls
// that declared it (duplicates included, in call order), and per-shard
// execution logs.
type randFleet struct {
	d     *Driver
	decl  []declEdge
	logs  [][]string
	shard []*Shard
}

// randClasses are the latency classes random fleets draw from: prompt
// and slow fixed hops, and beacon grids aligned and misaligned with the
// hop so grid rounding and equal-time ties both occur.
var randClasses = []EdgeLatency{
	{Fixed: hop},
	{Fixed: 2 * hop},
	{Fixed: hop, Grid: 5 * hop},
	{Fixed: hop / 2, Grid: 3 * hop},
	{Fixed: 3 * hop, Grid: 7*hop + hop/2},
}

// twinEdges plans a twin block for an n-shard fleet: two to four twin
// sources whose out-edges are all one destination set, split between a
// Grid class and a second class the same way for every twin, so the
// horizon pass meets identical (class, destination list) groups at
// several sources. When the fleet has room, one more source declares
// the same two lists with the classes swapped — equal lists under other
// classes, which must stay distinct groups. Destinations never include
// avoid (-1 for none) or a block source. It returns the block's
// declarations and marks its sources; fleets under three shards get no
// block. rng should be the block's own stream, so the caller's stays
// unchanged.
func twinEdges(rng *rand.Rand, n, avoid int) (edges []declEdge, src []bool) {
	src = make([]bool, n)
	if n < 3 {
		return nil, src
	}
	grid := randClasses[2+rng.Intn(len(randClasses)-2)] // randClasses[2:] have a Grid
	other := grid
	for other == grid {
		other = randClasses[rng.Intn(len(randClasses))]
	}
	perm := rng.Perm(n)
	twins := min(2+rng.Intn(3), n-1)
	swap := -1
	if n-twins >= 2 {
		swap = perm[twins]
	}
	var dst []int
	for _, v := range perm[twins:] {
		if v != swap && v != avoid && rng.Intn(10) < 7 {
			dst = append(dst, v)
		}
	}
	if len(dst) == 0 {
		if perm[n-1] == avoid {
			return nil, src
		}
		dst = []int{perm[n-1]} // never swap: that is perm[twins], n-twins >= 2
	}
	onGrid := make([]bool, n)
	for _, v := range dst {
		onGrid[v] = rng.Intn(2) == 0
	}
	declare := func(u int, gridCls, otherCls EdgeLatency) {
		src[u] = true
		for _, v := range dst {
			lat := otherCls
			if onGrid[v] {
				lat = gridCls
			}
			edges = append(edges, declEdge{src: u, dst: v, lat: lat})
		}
	}
	for _, u := range perm[:twins] {
		declare(u, grid, other)
	}
	if swap >= 0 {
		declare(swap, other, grid)
	}
	return edges, src
}

// buildRandom wires a seeded random fleet. Without mesh it declares a
// random directed graph over mixed Fixed/Grid classes — some shards have
// no in-edges (unreachable), some no out-edges, some pairs are declared
// twice with a different latency; with mesh it is a flat fleet, every
// pair one hop apart (declareMesh). Messages flow only on declared
// edges. With twins (random graphs only) a twin block (see twinEdges)
// replaces the random out-edges of its sources. Either way, random pairs carry stacked
// edge-fault windows, and every shard runs a budgeted program of local
// events and sends on a hop-quantised clock, so equal-time ties are
// common. Each event logs the window it ran in and its shard's limit,
// so the logs pin the per-window active sets and limits as well as the
// per-shard execution order.
func buildRandom(seed int64, mesh, twins bool, workers int) *randFleet {
	rng := rand.New(rand.NewSource(seed))
	n := 3 + rng.Intn(14)
	f := &randFleet{d: NewDriver(workers), logs: make([][]string, n)}
	d := f.d
	for i := 0; i < n; i++ {
		f.shard = append(f.shard, d.AddShard())
	}
	out := make([][]int, n) // declared destinations per source
	if !mesh {
		classes := randClasses[:2+rng.Intn(len(randClasses)-1)]
		deaf := rng.Intn(n) // no in-edges: only its own events reach it
		mute := rng.Intn(n) // no out-edges
		p := 0.15 + 0.5*rng.Float64()
		if rng.Intn(4) == 0 {
			p = 1 // dense mesh, as a hub tree declares under fabric faults
		}
		var block []declEdge
		twin := make([]bool, n)
		if twins {
			block, twin = twinEdges(rand.New(rand.NewSource(-seed)), n, deaf)
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u == v || v == deaf || u == mute || twin[u] || rng.Float64() >= p {
					continue
				}
				f.setEdge(u, v, classes[rng.Intn(len(classes))])
				out[u] = append(out[u], v)
				if rng.Intn(6) == 0 { // redeclare: the later latency wins
					f.setEdge(u, v, classes[rng.Intn(len(classes))])
				}
			}
		}
		for _, e := range block {
			f.setEdge(e.src, e.dst, e.lat)
			out[e.src] = append(out[e.src], e.dst)
		}
		if len(f.decl) == 0 {
			u, v := (deaf+1)%n, deaf
			if u == mute {
				v = (deaf + 2) % n
				if v == u {
					v = deaf
				}
			}
			if u != v {
				f.setEdge(u, v, classes[0])
				out[u] = append(out[u], v)
			}
		}
	} else {
		f.decl = declareMesh(d)
		for _, e := range f.decl {
			out[e.src] = append(out[e.src], e.dst)
		}
	}
	for k := rng.Intn(4); k > 0; k-- {
		u := rng.Intn(n)
		if len(out[u]) == 0 {
			continue
		}
		v := out[u][rng.Intn(len(out[u]))]
		for w := 1 + rng.Intn(2); w > 0; w-- { // stacked windows
			at := event.Time(rng.Intn(20)) * hop
			ef := EdgeFault{At: at, DropProb: []float64{0, 0.3, 1}[rng.Intn(3)],
				Delay: event.Time(rng.Intn(4)) * hop, Seed: rng.Int63()}
			if rng.Intn(2) == 0 {
				ef.Until = at + event.Time(1+rng.Intn(20))*hop
			}
			if ef.DropProb == 0 && ef.Delay == 0 {
				ef.Delay = hop / 2
			}
			d.AddEdgeFault(f.shard[u], f.shard[v], ef)
		}
	}

	budget := make([]int, n)
	rngs := make([]*rand.Rand, n)
	sent := make([]int, n)
	var step func(s int, label string) func()
	// A message runs step on its destination, labelled by its source
	// and the source's send count.
	stepMsg := d.Handle(func(dst *Shard, src int, p Payload) {
		step(dst.id, fmt.Sprintf("%d.%d", src, p.A))()
	})
	setupMsg := d.Handle(func(dst *Shard, _ int, _ Payload) { step(dst.id, "setup")() })
	step = func(s int, label string) func() {
		return func() {
			sh := f.shard[s]
			now := sh.Engine().Now()
			f.logs[s] = append(f.logs[s], fmt.Sprintf("w%d l%d t%d %s", d.stats.Windows, sh.limit, now, label))
			if budget[s] == 0 {
				return
			}
			budget[s]--
			r := rngs[s]
			if r.Intn(3) == 0 {
				sh.Engine().At(now+event.Time(r.Intn(3))*hop/2, step(s, label+"'"))
			}
			for k := r.Intn(3); k > 0 && len(out[s]) > 0; k-- {
				dst := f.shard[out[s][r.Intn(len(out[s]))]]
				at := sh.EarliestTo(dst) + event.Time(r.Intn(3))*hop
				sent[s]++
				p := Payload{A: int64(sent[s])}
				if r.Intn(4) == 0 {
					sh.SendReliable(dst, at, stepMsg, p)
				} else {
					sh.Send(dst, at, stepMsg, p)
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		rngs[i] = rand.New(rand.NewSource(seed*1000 + int64(i)))
		budget[i] = 10 + rng.Intn(30)
		for k := rng.Intn(3); k > 0; k-- {
			f.shard[i].Engine().At(event.Time(rng.Intn(8))*hop, step(i, fmt.Sprintf("init%d", k)))
		}
	}
	// One setup-time send, delivered by the first barrier.
	if u := rng.Intn(n); len(out[u]) > 0 {
		dst := f.shard[out[u][0]]
		f.shard[u].Send(dst, f.shard[u].EarliestTo(dst), setupMsg, Payload{})
	}
	return f
}

func (f *randFleet) setEdge(u, v int, lat EdgeLatency) {
	f.d.SetEdge(f.shard[u], f.shard[v], lat)
	f.decl = append(f.decl, declEdge{src: u, dst: v, lat: lat})
}

// digest summarises a finished run: shard count, end time, window
// stats, and an FNV-64a hash over every shard's execution log.
func (f *randFleet) digest(end event.Time) string {
	h := fnv.New64a()
	for _, l := range f.logs {
		for _, line := range l {
			h.Write([]byte(line))
			h.Write([]byte{'\n'})
		}
		h.Write([]byte{0})
	}
	return fmt.Sprintf("shards=%d edges=%d end=%d %v hist=%v digest=%016x",
		len(f.shard), len(f.decl), end, f.d.Stats(), f.d.Stats().Hist, h.Sum64())
}

// goldenSeeds are the random fleets horizons.golden pins, in both shapes.
const goldenSeeds = 24

func goldenLines(t *testing.T, workers int) string {
	t.Helper()
	var b strings.Builder
	for _, mesh := range []bool{false, true} {
		for seed := int64(1); seed <= goldenSeeds; seed++ {
			f := buildRandom(seed, mesh, false, workers)
			end := f.d.Run()
			fmt.Fprintf(&b, "seed=%d mesh=%v %s\n", seed, mesh, f.digest(end))
		}
	}
	return b.String()
}

// TestBarrierGolden pins the window structure — per-window active sets
// and limits, Stats, and every shard's execution order — of the seeded
// random fleets, at one and four workers. Regenerate only after an
// intended change to the window structure:
// go test ./internal/event/parsim -run TestBarrierGolden -update.
func TestBarrierGolden(t *testing.T) {
	path := filepath.Join("testdata", "horizons.golden")
	got := goldenLines(t, 1)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		if workers != 1 {
			got = goldenLines(t, workers)
		}
		if got != string(want) {
			gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := range wl {
				if i >= len(gl) || gl[i] != wl[i] {
					t.Fatalf("workers=%d: window structure differs from %s at line %d:\n got %q\nwant %q",
						workers, path, i+1, gl[min(i, len(gl)-1)], wl[i])
				}
			}
			t.Fatalf("workers=%d: window structure differs from %s", workers, path)
		}
	}
}

// TestRandomFleetsExerciseTheBarrier guards the generator: across the
// golden seeds the fleets must drop and delay messages, run windows
// with several active shards, and leave some shard with no in-edges.
func TestRandomFleetsExerciseTheBarrier(t *testing.T) {
	var dropped, delayed, multi, deaf int
	for seed := int64(1); seed <= goldenSeeds; seed++ {
		f := buildRandom(seed, false, false, 1)
		f.d.Run()
		st := f.d.Stats()
		dropped += st.Dropped
		delayed += st.Delayed
		if st.MaxActive > 1 {
			multi++
		}
		in := make([]bool, len(f.shard))
		for _, e := range f.decl {
			in[e.dst] = true
		}
		for _, ok := range in {
			if !ok {
				deaf++
				break
			}
		}
	}
	if dropped == 0 || delayed == 0 || multi < goldenSeeds/2 || deaf == 0 {
		t.Fatalf("random fleets too tame: dropped=%d delayed=%d multi-active=%d deaf=%d",
			dropped, delayed, multi, deaf)
	}
}

// TestTwinBlocksShareGroups guards twinEdges: across the golden seeds,
// twin fleets must intern one group for several sources, Grid classes
// included, and must hold equal destination lists under two classes.
func TestTwinBlocksShareGroups(t *testing.T) {
	var shared, sharedGrid, crossClass int
	for seed := int64(1); seed <= goldenSeeds; seed++ {
		d := buildRandom(seed, false, true, 1).d
		d.prepare()
		users := make([]int, len(d.groups))
		for _, g := range d.outGroups {
			users[g]++
		}
		for g, k := range users {
			if k > 1 {
				shared++
				if d.groups[g].lat.Grid > 0 {
					sharedGrid++
				}
			}
		}
		for i, a := range d.groups {
			for _, b := range d.groups[i+1:] {
				if a.lat != b.lat && slices.Equal(d.adj[a.lo:a.hi], d.adj[b.lo:b.hi]) {
					crossClass++
				}
			}
		}
	}
	if shared < goldenSeeds || sharedGrid == 0 || crossClass == 0 {
		t.Fatalf("twin blocks too tame: shared groups=%d (grid %d), equal lists across classes=%d",
			shared, sharedGrid, crossClass)
	}
}
