package sched

import (
	"math"
	"slices"
	"testing"

	"mlimp/internal/event"
	"mlimp/internal/isa"
)

func cacheTestJob() *Job {
	return &Job{ID: 1, Name: "memo", Kind: "gemm", Est: estOf(map[isa.Target]Profile{
		isa.SRAM:  {UnitCycles: 40000, RepUnit: 4, LoadBytes: 1 << 16, StoreBytes: 1 << 14},
		isa.DRAM:  {UnitCycles: 9000, RepUnit: 2, LoadBytes: 1 << 16, StoreBytes: 1 << 14},
		isa.ReRAM: {UnitCycles: 600, RepUnit: 1, LoadBytes: 1 << 16, StoreBytes: 1 << 14, ProgramBytes: 1 << 15},
	})}
}

// TestModelTimeMemo checks the memo is transparent: repeated queries
// hit, and hits return exactly what the from-scratch model computes.
func TestModelTimeMemo(t *testing.T) {
	sys := NewSystem(isa.Targets...)
	j := cacheTestJob()
	for _, tgt := range sys.Targets() {
		for _, arrays := range []int{1, 3, 17} {
			first := sys.ModelTime(j, tgt, arrays)
			again := sys.ModelTime(j, tgt, arrays)
			fresh := sys.computeProfileTime(&j.Est.p[tgt], tgt, arrays)
			if first != again || first != fresh {
				t.Fatalf("%v arrays=%d: memo %v / %v vs fresh %v", tgt, arrays, first, again, fresh)
			}
		}
	}
	st := sys.CacheStats()
	if st.ModelHits == 0 || st.ModelMisses == 0 {
		t.Errorf("expected both hits and misses, got %+v", st)
	}
	// 9 distinct (target, arrays) points, each queried twice via
	// ModelTime: exactly 9 misses from those calls.
	if st.ModelHits != 9 {
		t.Errorf("ModelHits = %d, want 9", st.ModelHits)
	}
}

// TestKneeAllocMemo checks the knee memo hits on repeat queries and
// keys on capacity, so cluster-scaled layers never see a stale knee.
func TestKneeAllocMemo(t *testing.T) {
	sys := NewSystem(isa.Targets...)
	j := cacheTestJob()
	k1 := sys.KneeAlloc(j, isa.SRAM)
	k2 := sys.KneeAlloc(j, isa.SRAM)
	if k1 != k2 {
		t.Fatalf("knee changed on repeat: %d vs %d", k1, k2)
	}
	st := sys.CacheStats()
	if st.KneeHits != 1 || st.KneeMisses != 1 {
		t.Errorf("knee stats = %+v, want 1 hit / 1 miss", st)
	}
	// Shrink the layer: the memo must miss and the knee must respect
	// the new capacity.
	sys.Layers[isa.SRAM].SetCapacity(2)
	k3 := sys.KneeAlloc(j, isa.SRAM)
	if k3 > 2 {
		t.Fatalf("knee %d exceeds shrunk capacity 2", k3)
	}
	if st := sys.CacheStats(); st.KneeMisses != 2 {
		t.Errorf("capacity change did not re-search: %+v", st)
	}
}

// TestProfMemoBounded floods the model memo with distinct profiles and
// asserts the generation-clear keeps it at or under its bound — the
// leak guard for long sweeps over many job shapes.
func TestProfMemoBounded(t *testing.T) {
	sys := NewSystem(isa.Targets...)
	j := cacheTestJob()
	for i := 0; i < 3*MaxProfMemoEntries; i++ {
		p := j.Est.p[isa.SRAM]
		p.UnitCycles = int64(1000 + i) // a fresh shape every query
		sys.memoProfileTime(&p, p.hash(0), isa.SRAM, 1+i%8)
	}
	if n := sys.profMemo.n; n > MaxProfMemoEntries {
		t.Errorf("profMemo grew to %d entries, bound is %d", n, MaxProfMemoEntries)
	}
	if n := len(sys.profMemo.index); n > 2*MaxProfMemoEntries {
		t.Errorf("profMemo index grew to %d slots, bound is %d", n, 2*MaxProfMemoEntries)
	}
	st := sys.CacheStats()
	if st.Clears == 0 {
		t.Error("3x overflow produced no generation clears")
	}
	// Clearing must stay transparent: a post-clear query still matches
	// the from-scratch model.
	p := j.Est.p[isa.SRAM]
	if got, want := sys.memoProfileTime(&p, p.hash(0), isa.SRAM, 4), sys.computeProfileTime(&p, isa.SRAM, 4); got != want {
		t.Errorf("post-clear memo %v != fresh %v", got, want)
	}
}

// TestProfMemoCollision plants an entry under a query's hash but for a
// different key: the lookup must not return it, and the miss overwrites
// the slot with the query's own entry.
func TestProfMemoCollision(t *testing.T) {
	sys := NewSystem(isa.Targets...)
	p := cacheTestJob().Est.p[isa.DRAM]
	k := profKey{p: p, t: isa.DRAM, x: 4}
	h := profHash(p.hash(0), k.t, k.x)
	other := k
	other.p.UnitCycles++
	sys.profMemo.store(nil, h, other, 12345, MaxProfMemoEntries)
	want := sys.computeProfileTime(&p, isa.DRAM, 4)
	if got := sys.memoProfileTime(&p, p.hash(0), isa.DRAM, 4); got != want {
		t.Fatalf("collision returned %v, fresh model is %v", got, want)
	}
	if e := sys.profMemo.lookup(h); e.k != k || event.Time(e.v) != want || sys.profMemo.n != 1 {
		t.Errorf("slot after collision = %+v (%d entries), want the query's key and value", e, sys.profMemo.n)
	}
	if st := sys.CacheStats(); st.ModelHits != 0 || st.ModelMisses != 1 {
		t.Errorf("stats = %+v, want 0 hits / 1 miss", st)
	}
}

// TestProfMemoBetaEdges: a NaN Beta never equals itself, so it must
// never hit (and must not pile up entries); +0 and -0 Beta both mean
// DefaultBeta and must both return the fresh model value.
func TestProfMemoBetaEdges(t *testing.T) {
	sys := NewSystem(isa.Targets...)
	p := cacheTestJob().Est.p[isa.SRAM]
	p.Beta = math.NaN()
	for i := 0; i < 3; i++ {
		if got, want := sys.memoProfileTime(&p, p.hash(0), isa.SRAM, 4), sys.computeProfileTime(&p, isa.SRAM, 4); got != want {
			t.Fatalf("NaN beta: memo %v != fresh %v", got, want)
		}
	}
	if st := sys.CacheStats(); st.ModelHits != 0 || st.ModelMisses != 3 {
		t.Errorf("NaN beta stats = %+v, want 0 hits / 3 misses", st)
	}
	if n := sys.profMemo.n; n != 1 {
		t.Errorf("NaN beta left %d entries, want 1", n)
	}
	for _, beta := range []float64{0, math.Copysign(0, -1), 0, math.Copysign(0, -1)} {
		p.Beta = beta
		if got, want := sys.memoProfileTime(&p, p.hash(0), isa.SRAM, 4), sys.computeProfileTime(&p, isa.SRAM, 4); got != want {
			t.Fatalf("beta %v: memo %v != fresh %v", beta, got, want)
		}
	}
}

// TestKneeMissSkipsProfMemo: the knee search evaluates its grid
// directly, so a knee miss must not add entries to the model memo —
// otherwise one-off grid points crowd the working set out again.
func TestKneeMissSkipsProfMemo(t *testing.T) {
	sys := NewSystem(isa.Targets...)
	j := cacheTestJob()
	sys.ModelTime(j, isa.SRAM, 3)
	n, before := sys.profMemo.n, sys.CacheStats()
	for _, tgt := range sys.Targets() {
		sys.KneeAlloc(j, tgt)
	}
	after := sys.CacheStats()
	if after.KneeMisses != before.KneeMisses+3 {
		t.Fatalf("knee misses %d -> %d, want 3 fresh searches", before.KneeMisses, after.KneeMisses)
	}
	if sys.profMemo.n != n || after.ModelMisses != before.ModelMisses || after.ModelHits != before.ModelHits {
		t.Errorf("knee search touched the model memo: %d -> %d entries, stats %+v -> %+v",
			n, sys.profMemo.n, before, after)
	}
}

// TestKneeGridFollowsCapacity: the cached search grid is rebuilt when a
// layer's capacity changes, so it always equals a fresh System's grid.
func TestKneeGridFollowsCapacity(t *testing.T) {
	sys := NewSystem(isa.Targets...)
	for _, c := range []int{4096, 2, 100, 4096, 1} {
		g := sys.kneeGrid(isa.DRAM, c)
		ms, mN := slices.Clone(g.ms), slices.Clone(g.mN)
		want := NewSystem(isa.Targets...).kneeGrid(isa.DRAM, c)
		if !slices.Equal(ms, want.ms) {
			t.Fatalf("cap %d: grid %v, want %v", c, ms, want.ms)
		}
		if len(ms) >= 3 && !slices.Equal(mN, want.mN) {
			t.Fatalf("cap %d: normalised grid %v, want %v", c, mN, want.mN)
		}
	}
}

// TestKneeMemoBounded floods the knee memo past its bound.
func TestKneeMemoBounded(t *testing.T) {
	sys := NewSystem(isa.Targets...)
	j := cacheTestJob()
	p := j.Est.p[isa.SRAM]
	for i := 0; i < 2*MaxKneeMemoEntries; i++ {
		p.UnitCycles = int64(1000 + i)
		sys.memoKneeAlloc(&p, p.hash(0), isa.SRAM, 64, 8)
	}
	if n := sys.kneeMemo.n; n > MaxKneeMemoEntries {
		t.Errorf("kneeMemo grew to %d entries, bound is %d", n, MaxKneeMemoEntries)
	}
	if n := len(sys.kneeMemo.index); n > 2*MaxKneeMemoEntries {
		t.Errorf("kneeMemo index grew to %d slots, bound is %d", n, 2*MaxKneeMemoEntries)
	}
	if st := sys.CacheStats(); st.Clears == 0 || st.KneeMisses != 2*MaxKneeMemoEntries {
		t.Errorf("2x overflow: stats %+v, want clears and %d misses", st, 2*MaxKneeMemoEntries)
	}
}

// TestDegradeClearsKneeMemo: capacity changes generation-clear the knee
// memo, so a churning fault plan cannot strand one memo generation per
// capacity value it visits.
func TestDegradeClearsKneeMemo(t *testing.T) {
	sys := NewSystem(isa.Targets...)
	j := cacheTestJob()
	sys.KneeAlloc(j, isa.SRAM)
	if sys.kneeMemo.n == 0 {
		t.Fatal("knee search left no memo entry")
	}
	base := sys.CacheStats().Clears
	if sys.Degrade(isa.SRAM, 4) == 0 {
		t.Fatal("degrade removed nothing")
	}
	if sys.kneeMemo.n != 0 {
		t.Errorf("degrade left %d knee entries", sys.kneeMemo.n)
	}
	if sys.CacheStats().Clears != base+1 {
		t.Errorf("degrade clears = %d, want %d", sys.CacheStats().Clears, base+1)
	}
	sys.KneeAlloc(j, isa.SRAM)
	if sys.Restore(isa.SRAM, 4) == 0 {
		t.Fatal("restore returned nothing")
	}
	if sys.kneeMemo.n != 0 {
		t.Errorf("restore left %d knee entries", sys.kneeMemo.n)
	}
}

// BenchmarkModelTime measures the memoized hot path against the
// from-scratch model evaluation it replaces.
func BenchmarkModelTime(b *testing.B) {
	sys := NewSystem(isa.Targets...)
	j := cacheTestJob()
	b.Run("memoized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sys.ModelTime(j, isa.DRAM, 1+i%16)
		}
	})
	b.Run("compute", func(b *testing.B) {
		b.ReportAllocs()
		p := j.Est.p[isa.DRAM]
		for i := 0; i < b.N; i++ {
			sys.computeProfileTime(&p, isa.DRAM, 1+i%16)
		}
	})
}

// BenchmarkKneeAlloc measures the memoized knee search.
func BenchmarkKneeAlloc(b *testing.B) {
	sys := NewSystem(isa.Targets...)
	j := cacheTestJob()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys.KneeAlloc(j, isa.SRAM)
	}
}

// TestProfMemoGrowKeepsEntries fills the model memo through several
// table growths: every entry stored before a growth must still hit
// afterwards, with its stored value.
func TestProfMemoGrowKeepsEntries(t *testing.T) {
	sys := NewSystem(isa.Targets...)
	p := cacheTestJob().Est.p[isa.SRAM]
	const n = MaxProfMemoEntries / 2
	want := make([]event.Time, n)
	for i := range want {
		want[i] = sys.memoProfileTime(&p, p.hash(0), isa.SRAM, 1+i)
	}
	if got := len(sys.profMemo.index); got <= profIndexMin {
		t.Fatalf("table never grew: %d slots", got)
	}
	for i := range want {
		if got := sys.memoProfileTime(&p, p.hash(0), isa.SRAM, 1+i); got != want[i] {
			t.Fatalf("arrays=%d: %v after growth, stored %v", 1+i, got, want[i])
		}
	}
	if st := sys.CacheStats(); st.ModelHits != n || st.ModelMisses != n || st.Clears != 0 {
		t.Errorf("stats = %+v, want %d hits / %d misses / 0 clears", st, n, n)
	}
}
