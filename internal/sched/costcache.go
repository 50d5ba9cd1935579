package sched

import (
	"math"

	"mlimp/internal/event"
	"mlimp/internal/isa"
)

// Analytical-cost memoization.
//
// The schedulers evaluate the Section III-C model t(x,m) thousands of
// times per batch: queue sorts, the inter/intra-queue adjustments, the
// bisections of Algorithm 2 and every dispatcher routing decision
// re-derive the same per-(job-shape, target, allocation) time. The
// model is a pure function of the job's Profile and the layer's
// immutable configuration (the DDR StreamTime term is closed-form and
// stateless), so the System memoizes it in a table keyed by a cheap
// 64-bit mix of the (profile, target, allocation) fields (profTable).
// The entry stores the full key: a lookup hits only when the stored key
// equals the query, so a hash collision costs one recomputation and an
// overwrite, never a wrong answer. Two jobs sharing a shape (every job
// of one app does) share entries.
//
// KneeAlloc is memoized in a second profTable of its own, keyed the
// same way by (profile, target, free-set signature): the canonical
// signature of the layer's free array set (ArraySet.Signature) is the
// one mutable input (internal/cluster scales capacities at node
// construction; the fault path decommissions arrays), so a resized or
// degraded layer can never serve a stale knee.
//
// The knee search does not go through the model memo. Its
// kneeGridPoints grid points are one-off allocations that would crowd
// the working set out of the bounded table. It builds the model's
// allocation-independent terms once per search (modelTerms) and takes
// the compute scales (a_repunit/m)^beta of its grid from the scale
// table: a small least-recently-used table of per-shape scale vectors.
// A scale depends only on (target, capacity, RepUnit, Beta), and far
// fewer curve shapes than profiles reach the search, so most searches
// call math.Pow at most once.
//
// A System is not safe for concurrent use — its memo tables, free sets
// and replica state are mutated by every schedule — so unsynchronised
// tables suffice; parallel callers (experiments.RunAll, parallel kernels)
// each own their System.

// profKey is a memo key: a profile on a target, plus the allocation
// (model memo) or the layer's free-set signature (knee memo).
type profKey struct {
	p Profile
	t isa.Target
	x uint64
}

// profHash mixes every key field into 64 bits with a fixed
// multiply-xor step, from ph = p.hash(0); Beta enters by its bit
// pattern. Equal keys always hash equal except +0/-0 Beta, which merely
// occupy two slots with one value; a NaN Beta never equals itself, so
// such a key always recomputes.
func profHash(ph uint64, t isa.Target, x uint64) uint64 {
	return Mix(Mix(ph, uint64(t)), x)
}

// profTable is a memo table (the model memo or the knee memo): entries
// stored in insertion order in fixed-size chunks under an
// open-addressed index with linear probing, holding at most one entry
// per key hash — a map[uint64]entry in
// behaviour, but a lookup probes and compares in place instead of
// copying the entry out of a runtime map, and growth never copies an
// entry or allocates a large object. The index starts at profIndexMin
// slots on the first store and doubles before its load passes one
// half; entries are never deleted, only cleared wholesale at the
// table's bound, which keeps the chunks for reuse.
type profTable struct {
	index  []uint32                // power-of-two length; entry number, 0 = empty
	chunks []*[profChunk]profEntry // entry k lives at chunks[(k-1)/profChunk]
	n      int                     // entries stored
}

// profEntry is one memo entry: the key hash, the full key the value was
// computed for, and the modelled time or knee allocation.
type profEntry struct {
	h uint64
	k profKey
	v int64
}

const (
	profIndexMin = 256
	// profChunk is the entries per chunk: 3 KiB, a small-object size
	// class, small because a fleet node's knee memo holds a handful of
	// entries and a System is built per node.
	profChunk = 32
)

// at returns entry number k (1-based).
func (m *profTable) at(k uint32) *profEntry {
	k--
	return &m.chunks[k/profChunk][k%profChunk]
}

// find returns the index slot of hash h: the slot naming h's entry, or
// the empty slot where h belongs. The index must be non-empty.
func (m *profTable) find(h uint64) *uint32 {
	mask := uint64(len(m.index) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		if x := &m.index[i]; *x == 0 || m.at(*x).h == h {
			return x
		}
	}
}

// lookup returns the entry of hash h, or nil.
func (m *profTable) lookup(h uint64) *profEntry {
	if len(m.index) == 0 {
		return nil
	}
	if x := *m.find(h); x != 0 {
		return m.at(x)
	}
	return nil
}

// clear drops every entry, keeping the index and chunks for reuse.
func (m *profTable) clear() {
	clear(m.index)
	m.n = 0
}

// store records value v for key k of hash h, overwriting e — the entry
// lookup(h) returned for a different key (a hash collision) — in place,
// or else adding a new entry, first generation-clearing a table holding
// limit entries (reporting it) or growing a half-loaded index.
func (m *profTable) store(e *profEntry, h uint64, k profKey, v int64, limit int) (cleared bool) {
	if e != nil {
		e.k, e.v = k, v
		return false
	}
	switch {
	case m.n >= limit:
		m.clear()
		cleared = true
	case 2*(m.n+1) > len(m.index):
		m.index = make([]uint32, max(2*len(m.index), profIndexMin))
		for k := uint32(1); k <= uint32(m.n); k++ {
			*m.find(m.at(k).h) = k
		}
	}
	if m.n == len(m.chunks)*profChunk {
		m.chunks = append(m.chunks, new([profChunk]profEntry))
	}
	m.n++
	*m.at(uint32(m.n)) = profEntry{h: h, k: k, v: v}
	*m.find(h) = uint32(m.n)
	return cleared
}

// hash mixes every profile field into h.
func (p *Profile) hash(h uint64) uint64 {
	h = Mix(h, uint64(p.UnitCycles))
	h = Mix(h, uint64(p.RepUnit))
	h = Mix(h, uint64(p.LoadBytes))
	h = Mix(h, uint64(p.StoreBytes))
	h = Mix(h, uint64(p.ProgramBytes))
	h = Mix(h, math.Float64bits(p.Beta))
	h = Mix(h, uint64(p.Overhead))
	return Mix(h, uint64(p.MaxUseful))
}

// Hash mixes the presence mask and every present profile's hash into
// h: tables that compare equal hash equal.
func (e *Estimates) Hash(h uint64) uint64 {
	h = Mix(h, uint64(e.Mask()))
	if e == nil {
		return h
	}
	for t := range e.ph {
		if e.mask.Has(isa.Target(t)) {
			h = Mix(h, e.ph[t])
		}
	}
	return h
}

// Mix folds v into the running hash h with a fixed multiply-xor step.
func Mix(h, v uint64) uint64 {
	h = (h ^ v) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// MaxProfMemoEntries and MaxKneeMemoEntries bound the memo tables. The
// entries are pure-function results, so eviction can never produce a
// wrong answer — the only cost is a recomputation — but without a bound
// a long sweep over many job shapes and fault-mutated capacities grows
// the tables without limit. When a table reaches its bound it is
// generation-cleared (dropped wholesale): the working set at any
// instant is a few dozen shapes, so an LRU's per-hit bookkeeping would
// cost more on the hot path than the rare full rebuild after a clear.
const (
	MaxProfMemoEntries = 4096
	MaxKneeMemoEntries = 1024
)

// CacheStats reports the System's cost-model memoization counters, a
// visibility hook for tests and perf investigations.
type CacheStats struct {
	ModelHits, ModelMisses int64
	KneeHits, KneeMisses   int64
	// Clears counts generation-clears: bound overflows plus
	// Degrade/Restore invalidation sweeps.
	Clears int64
}

// CacheStats returns the memo hit/miss counters accumulated so far.
func (s *System) CacheStats() CacheStats { return s.cacheStats }

// memoProfileTime answers ModelTime from the memo, computing and
// filling on miss; ph is p.hash(0). The memos are lazily initialised
// because Systems are also built as composite literals (single-layer
// oracle systems).
func (s *System) memoProfileTime(p *Profile, ph uint64, t isa.Target, arrays int) event.Time {
	h := profHash(ph, t, uint64(arrays))
	e := s.profMemo.lookup(h)
	if e != nil && e.k.p == *p && e.k.t == t && e.k.x == uint64(arrays) {
		s.cacheStats.ModelHits++
		return event.Time(e.v)
	}
	v := s.computeProfileTime(p, t, arrays)
	k := profKey{p: *p, t: t, x: uint64(arrays)}
	if s.profMemo.store(e, h, k, int64(v), MaxProfMemoEntries) {
		s.cacheStats.Clears++
	}
	s.cacheStats.ModelMisses++
	return v
}

// memoKneeAlloc answers KneeAlloc from the knee memo, keyed by the
// layer's current free-set signature sig, searching the grid over
// [1, maxM] and filling on miss; ph is p.hash(0).
func (s *System) memoKneeAlloc(p *Profile, ph uint64, t isa.Target, sig uint64, maxM int) int {
	h := profHash(ph, t, sig)
	e := s.kneeMemo.lookup(h)
	if e != nil && e.k.p == *p && e.k.t == t && e.k.x == sig {
		s.cacheStats.KneeHits++
		return int(e.v)
	}
	v := s.kneeSearch(p, t, maxM)
	k := profKey{p: *p, t: t, x: sig}
	if s.kneeMemo.store(e, h, k, int64(v), MaxKneeMemoEntries) {
		s.cacheStats.Clears++
	}
	s.cacheStats.KneeMisses++
	return v
}

// clearKneeMemo generation-clears the knee memo after a free-set
// change: entries keyed by signatures the layer has left behind can
// only be hit again if that exact set returns, so Degrade/Restore
// drops them wholesale rather than letting a churning fault plan strand
// one memo generation per free-set it visits.
func (s *System) clearKneeMemo() {
	if s.kneeMemo.n == 0 {
		return
	}
	s.kneeMemo.clear()
	s.cacheStats.Clears++
}

// scaleSlots bounds the rows of a System's scale table. Sized by the
// traffic: a serving node revisits a few dozen shapes, which 32 rows
// hold (16 rows miss three times as often), while the exponents fitted
// per batch make nearly a third of a batch stream's searches one-off
// shapes that no size helps. Rows are allocated as shapes arrive, so a System that sees few
// shapes pays for few rows.
const scaleSlots = 32

// scaleKey names a curve shape: the compute scales of a knee grid
// depend on nothing else.
type scaleKey struct {
	t       isa.Target
	maxM    int    // layer capacity, which fixes the grid
	repUnit int    // RepUnit, at least 1
	beta    uint64 // bit pattern of Beta, DefaultBeta when unset
}

// scaleRow holds one curve shape's compute scales over its knee grid ms:
// v[i] = (repUnit/ms[i])^beta, filled for the first n points.
type scaleRow struct {
	k scaleKey
	n int
	v [kneeGridPoints]float64
}

// kneeScales returns the compute scales of the grid points ms, a prefix
// of the knee grid of capacity maxM on target t, for mt's curve shape.
// Each scale is mt.scale(ms[i]) — the same math.Pow call on the same
// arguments — computed once per row and kept until the row is evicted.
// The table is fully associative and kept in most-recently-used order,
// so a miss evicts the least recently used row. The grid is a function
// of maxM alone, so a capacity change can never serve a row built for
// another grid.
func (s *System) kneeScales(mt *modelTerms, t isa.Target, maxM int, ms []int) []float64 {
	k := scaleKey{t: t, maxM: maxM, repUnit: mt.repUnit, beta: math.Float64bits(mt.beta)}
	rows := s.scales
	i := 0
	for i < len(rows) && rows[i].k != k {
		i++
	}
	if i == len(rows) { // miss: take a new row, or evict the last
		if len(rows) < scaleSlots {
			if rows == nil {
				rows = make([]*scaleRow, 0, scaleSlots)
			}
			rows = append(rows, new(scaleRow))
			s.scales = rows
		} else {
			i--
		}
		rows[i].k, rows[i].n = k, 0
	}
	r := rows[i]
	copy(rows[1:i+1], rows[:i])
	rows[0] = r
	for ; r.n < len(ms); r.n++ {
		r.v[r.n] = mt.scale(ms[r.n])
	}
	return r.v[:len(ms)]
}
