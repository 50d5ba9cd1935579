package sched

import (
	"math"
	"math/rand"
	"testing"

	"mlimp/internal/event"
	"mlimp/internal/isa"
)

// The reference cost model is the oracle for the differential tests:
// Equations 1-3 evaluated from the raw profile at every allocation, with
// no term shared between allocations, and the knee search over that
// model on a grid built per call, with no scale table. The knee search,
// computeProfileTime, ObservedUnitCycles and ReplicaTime must agree with
// it bit for bit.

func refProfileParts(s *System, p *Profile, t isa.Target, arrays int) (ld event.Time, scale float64, clock event.Clock) {
	l := s.Layers[t]
	clock = l.Cfg.Clock()

	beta := p.Beta
	if beta == 0 {
		beta = DefaultBeta
	}
	repUnit := p.RepUnit
	if repUnit < 1 {
		repUnit = 1
	}
	effArrays := arrays
	if p.MaxUseful > 0 && effArrays > p.MaxUseful {
		effArrays = p.MaxUseful
	}
	scale = math.Pow(float64(repUnit)/float64(effArrays), beta)

	ld = p.Overhead + s.DDR.StreamTime(p.LoadBytes) + s.DDR.StreamTime(p.StoreBytes)
	if p.ProgramBytes > 0 {
		ld += s.DDR.StreamTime(p.ProgramBytes) * programWriteSlowdown
	}
	if replicas := effArrays / repUnit; replicas > 1 {
		rounds := int64(0)
		for v := replicas - 1; v > 0; v >>= 1 {
			rounds++
		}
		ld += clock.Cycles(rounds * int64(l.Cfg.ArrayRows))
	}
	return ld, scale, clock
}

func refProfileTime(s *System, p *Profile, t isa.Target, arrays int) event.Time {
	ld, scale, clock := refProfileParts(s, p, t, arrays)
	return ld + event.Time(float64(clock.Cycles(p.UnitCycles))*scale)
}

func refObservedUnitCycles(s *System, p *Profile, t isa.Target, arrays int, span event.Time) int64 {
	ld, scale, clock := refProfileParts(s, p, t, arrays)
	cmpt := span - ld
	if cmpt <= 0 || scale <= 0 {
		return 1
	}
	c := clock.CyclesAt(event.Time(float64(cmpt) / scale))
	if c < 1 {
		c = 1
	}
	return c
}

func refReplicaTime(s *System, p *Profile, t isa.Target, arrays int) event.Time {
	l := s.Layers[t]
	beta := p.Beta
	if beta == 0 {
		beta = DefaultBeta
	}
	repUnit := p.RepUnit
	if repUnit < 1 {
		repUnit = 1
	}
	eff := arrays
	if p.MaxUseful > 0 && eff > p.MaxUseful {
		eff = p.MaxUseful
	}
	scale := math.Pow(float64(repUnit)/float64(eff), beta)
	ld := p.Overhead + s.DDR.StreamTime(p.StoreBytes)
	return ld + event.Time(float64(l.Cfg.Clock().Cycles(p.UnitCycles))*scale)
}

func refKneeGrid(maxM int) []int {
	var ms []int
	prev := 0
	for i := 0; i < kneeGridPoints; i++ {
		m := int(math.Round(math.Pow(float64(maxM), float64(i)/(kneeGridPoints-1))))
		if m <= prev {
			m = prev + 1
		}
		if m > maxM {
			break
		}
		ms = append(ms, m)
		prev = m
	}
	return ms
}

// refKneeSearch returns the knee and the sampled curve (nil for a grid
// too short to search).
func refKneeSearch(s *System, p *Profile, t isa.Target, maxM int) (int, []float64) {
	ms := refKneeGrid(maxM)
	if len(ms) < 3 {
		return maxM, nil
	}
	ts := make([]float64, len(ms))
	for i, m := range ms {
		ts[i] = float64(refProfileTime(s, p, t, m))
	}
	tMin, tMax := ts[0], ts[0]
	for _, v := range ts {
		tMin = math.Min(tMin, v)
		tMax = math.Max(tMax, v)
	}
	if tMax == tMin {
		return ms[0], ts
	}
	mLo, mHi := float64(ms[0]), float64(ms[len(ms)-1])
	n0 := func(m float64) float64 { return (m - mLo) / (mHi - mLo) }
	bestIdx, bestDist := 0, math.Inf(-1)
	for i := range ms {
		mN := n0(float64(ms[i]))
		tN := (ts[i] - tMin) / (tMax - tMin)
		chord := ts[0] + (ts[len(ts)-1]-ts[0])*mN
		chordN := (chord - tMin) / (tMax - tMin)
		if d := chordN - tN; d > bestDist {
			bestDist = d
			bestIdx = i
		}
	}
	return ms[bestIdx], ts
}

// randomProfile draws a profile for a layer of capacity maxM. RepUnit
// and Beta come from small pools often enough that curve shapes recur
// (scale-table hits, and rows extended by a later, less capped
// profile), and fresh often enough that the table overflows.
func randomProfile(rng *rand.Rand, maxM int) Profile {
	p := Profile{
		UnitCycles: 1 + rng.Int63n(1<<24),
		LoadBytes:  rng.Int63n(1 << 22),
		StoreBytes: rng.Int63n(1 << 20),
		Overhead:   event.Time(rng.Int63n(1 << 20)),
	}
	switch rng.Intn(5) {
	case 0:
		p.RepUnit = 0 // means 1
	case 1:
		p.RepUnit = []int{1, 2, 7, 64}[rng.Intn(4)]
	case 2:
		p.RepUnit = maxM + 1 + rng.Intn(maxM) // larger than the layer
	default:
		p.RepUnit = 1 + rng.Intn(256)
	}
	switch rng.Intn(6) {
	case 0:
		p.Beta = 0 // DefaultBeta
	case 1:
		p.Beta = 0.5
	case 2:
		p.Beta = 1
	case 3:
		p.Beta = []float64{0.61803, 0.7321, 0.90125}[rng.Intn(3)] // fitted, recurring
	default:
		p.Beta = 0.3 + 0.7*rng.Float64() // fitted, one-off
	}
	if rng.Intn(3) == 0 {
		p.ProgramBytes = 1 + rng.Int63n(1<<22)
	}
	switch rng.Intn(5) {
	case 0:
		p.MaxUseful = 0 // no cap
	case 1:
		p.MaxUseful = 1 // below every grid point but the first
	case 2:
		p.MaxUseful = maxM + 1 + rng.Intn(maxM) // above the grid
	default:
		p.MaxUseful = 1 + rng.Intn(maxM) // inside the grid
	}
	return p
}

// checkAgainstReference compares every refactored model path for p on
// layer t at its current capacity against the reference.
func checkAgainstReference(t *testing.T, sys *System, rng *rand.Rand, p Profile, tgt isa.Target) {
	t.Helper()
	maxM := sys.Layers[tgt].Capacity()
	wantKnee, wantTs := refKneeSearch(sys, &p, tgt, maxM)
	if got := sys.kneeSearch(&p, tgt, maxM); got != wantKnee {
		t.Fatalf("%v cap %d %+v: knee %d, reference %d", tgt, maxM, p, got, wantKnee)
	}
	if wantTs != nil {
		g := sys.kneeGrid(tgt, maxM)
		ts := make([]float64, len(g.ms))
		sys.kneeCurve(&p, tgt, maxM, g.ms, ts)
		for i := range ts {
			if math.Float64bits(ts[i]) != math.Float64bits(wantTs[i]) {
				t.Fatalf("%v cap %d %+v: ts[%d] (m=%d) = %v, reference %v", tgt, maxM, p, i, g.ms[i], ts[i], wantTs[i])
			}
		}
	}
	j := &Job{Est: &Estimates{}}
	j.Est.Set(tgt, p)
	if got := sys.KneeAlloc(j, tgt); got != wantKnee {
		t.Fatalf("%v cap %d %+v: KneeAlloc %d, reference %d", tgt, maxM, p, got, wantKnee)
	}
	for _, arrays := range []int{1, 1 + rng.Intn(max(maxM, 1)), max(maxM, 1), 2*maxM + 1} {
		want := refProfileTime(sys, &p, tgt, arrays)
		if got := sys.computeProfileTime(&p, tgt, arrays); got != want {
			t.Fatalf("%v %+v arrays %d: model %v, reference %v", tgt, p, arrays, got, want)
		}
		if got, want := sys.ReplicaTime(p, tgt, arrays), refReplicaTime(sys, &p, tgt, arrays); got != want {
			t.Fatalf("%v %+v arrays %d: replica time %v, reference %v", tgt, p, arrays, got, want)
		}
		for _, span := range []event.Time{want, want / 2, want + event.Time(rng.Int63n(1<<20)), 0} {
			if got, want := sys.ObservedUnitCycles(p, tgt, arrays, span), refObservedUnitCycles(sys, &p, tgt, arrays, span); got != want {
				t.Fatalf("%v %+v arrays %d span %v: observed cycles %d, reference %d", tgt, p, arrays, span, got, want)
			}
		}
	}
}

// TestKneeSearchMatchesReference runs seeded random profiles through
// every layer at its full capacity, at capacities whose grids are
// shorter than three points or small, and through a Degrade and the
// Restore that undoes it, and replays the same profiles after the scale
// table has overflowed and evicted their rows.
func TestKneeSearchMatchesReference(t *testing.T) {
	sys := NewSystem(isa.Targets...)
	rng := rand.New(rand.NewSource(19))
	shapes := map[scaleKey]bool{}
	run := func(n int) {
		for _, tgt := range sys.Targets() {
			maxM := sys.Layers[tgt].Capacity()
			for i := 0; i < n; i++ {
				p := randomProfile(rng, max(maxM, 1))
				checkAgainstReference(t, sys, rng, p, tgt)
				beta := p.Beta
				if beta == 0 {
					beta = DefaultBeta
				}
				shapes[scaleKey{tgt, maxM, max(p.RepUnit, 1), math.Float64bits(beta)}] = true
			}
		}
	}
	run(300)
	if len(sys.scales) != scaleSlots || len(shapes) <= scaleSlots {
		t.Fatalf("scale table holds %d rows after %d shapes: the run never evicted", len(sys.scales), len(shapes))
	}

	// Replay: the same draws again, after their rows were evicted.
	rng = rand.New(rand.NewSource(19))
	run(300)

	for _, c := range []int{1, 2, 3, 5, 100} {
		for _, tgt := range sys.Targets() {
			sys.Layers[tgt].SetCapacity(c)
		}
		run(40)
	}

	sys = NewSystem(isa.Targets...)
	for _, tgt := range sys.Targets() {
		if sys.Degrade(tgt, sys.Layers[tgt].Capacity()/3) == 0 {
			t.Fatalf("%v: degrade removed nothing", tgt)
		}
	}
	run(60)
	for _, tgt := range sys.Targets() {
		if sys.Restore(tgt, sys.Layers[tgt].Capacity()) == 0 {
			t.Fatalf("%v: restore returned nothing", tgt)
		}
	}
	run(60)
}

// TestScaleTableFollowsCapacity: the scale table keys rows by capacity,
// so after a SetCapacity the search never reads a vector built for the
// old grid — the curve matches the reference at each capacity, and the
// row it used is keyed by the new one.
func TestScaleTableFollowsCapacity(t *testing.T) {
	sys := NewSystem(isa.Targets...)
	rng := rand.New(rand.NewSource(7))
	p := Profile{UnitCycles: 1 << 20, RepUnit: 3, Beta: 0.7, LoadBytes: 1 << 16}
	l := sys.Layers[isa.DRAM]
	for _, c := range []int{4096, 100, 4096, 7, 100} {
		l.SetCapacity(c)
		for range 2 { // the first search fills the row, the second reads it
			checkAgainstReference(t, sys, rng, p, isa.DRAM)
			if k := sys.scales[0].k; k.maxM != c {
				t.Fatalf("cap %d: search used a row keyed by capacity %d", c, k.maxM)
			}
		}
	}
}

// TestKneeMemoCollision plants another profile's knee under a query's
// hash: the lookup must recompute rather than return it, and a query
// forced onto the hash of an entry for a different profile must
// recompute too.
func TestKneeMemoCollision(t *testing.T) {
	sys := NewSystem(isa.Targets...)
	j := cacheTestJob()
	p := j.Est.p[isa.SRAM]
	l := sys.Layers[isa.SRAM]
	other := p
	other.MaxUseful = 8
	want, _ := refKneeSearch(sys, &p, isa.SRAM, l.Capacity())
	wantOther, _ := refKneeSearch(sys, &other, isa.SRAM, l.Capacity())
	if want == wantOther {
		t.Fatalf("fixture profiles share knee %d; the test cannot tell them apart", want)
	}
	h := profHash(j.Est.ph[isa.SRAM], isa.SRAM, l.sig)
	sys.kneeMemo.store(nil, h, profKey{p: other, t: isa.SRAM, x: l.sig}, int64(wantOther), MaxKneeMemoEntries)
	if got := sys.KneeAlloc(j, isa.SRAM); got != want {
		t.Fatalf("collision returned knee %d, reference is %d", got, want)
	}
	if e := sys.kneeMemo.lookup(h); e.k.p != p || e.v != int64(want) || sys.kneeMemo.n != 1 {
		t.Errorf("slot after collision = %+v (%d entries), want the query's key and knee", e, sys.kneeMemo.n)
	}
	// other, hashed as p, lands on p's entry and must not be served it.
	if got := sys.memoKneeAlloc(&other, j.Est.ph[isa.SRAM], isa.SRAM, l.sig, l.Capacity()); got != wantOther {
		t.Fatalf("forced collision returned knee %d, reference is %d", got, wantOther)
	}
	if st := sys.CacheStats(); st.KneeHits != 0 || st.KneeMisses != 2 {
		t.Errorf("stats = %+v, want 0 hits / 2 misses", st)
	}
}
