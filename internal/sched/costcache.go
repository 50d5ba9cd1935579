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
// The knee search does not go through this memo. Its kneeGridPoints
// grid points are one-off allocations that would crowd the working set
// out of the bounded map; the search calls the model directly, and its
// result is memoized in the knee memo below instead.
//
// A System is not safe for concurrent use — the DDR controller already
// accumulates access statistics — so unsynchronised tables suffice; parallel
// callers (experiments.RunAll, parallel kernels) each own their System.
//
// KneeAlloc additionally keys on the canonical signature of the layer's
// free array set (ArraySet.Signature), the one mutable input
// (internal/cluster scales capacities at node construction; the fault
// path decommissions arrays) — so a resized or degraded layer can never
// serve a stale knee.

type profKey struct {
	p      Profile
	t      isa.Target
	arrays int
}

// profHash mixes every key field into 64 bits with a fixed
// multiply-xor step, from ph = p.hash(0); Beta enters by its bit
// pattern. Equal keys always hash equal except +0/-0 Beta, which merely
// occupy two slots with one value; a NaN Beta never equals itself, so
// such a key always recomputes.
func profHash(ph uint64, t isa.Target, arrays int) uint64 {
	return Mix(Mix(ph, uint64(t)), uint64(arrays))
}

// profTable is the model memo: entries stored in insertion order in
// fixed-size chunks under an open-addressed index with linear probing,
// holding at most one entry per key hash — a map[uint64]entry in
// behaviour, but a lookup probes and compares in place instead of
// copying the entry out of a runtime map, and growth never copies an
// entry or allocates a large object. The index starts at profIndexMin
// slots on the first store and doubles before its load passes one
// half; entries are never deleted, only cleared wholesale at
// MaxProfMemoEntries, which keeps the chunks for reuse.
type profTable struct {
	index  []uint32                // power-of-two length; entry number, 0 = empty
	chunks []*[profChunk]profEntry // entry k lives at chunks[(k-1)/profChunk]
	n      int                     // entries stored
}

// profEntry is one model memo entry: the key hash, the full key the
// value was computed for, and the modelled time.
type profEntry struct {
	h uint64
	k profKey
	v event.Time
}

const (
	profIndexMin = 256
	profChunk    = 128 // entries per chunk: 12 KiB, a small-object size class
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

// add stores the entry of a hash not in the table, first
// generation-clearing a full table (reporting it) or growing a
// half-loaded index.
func (m *profTable) add(e profEntry) (cleared bool) {
	switch {
	case m.n >= MaxProfMemoEntries:
		clear(m.index)
		m.n = 0
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
	*m.at(uint32(m.n)) = e
	*m.find(e.h) = uint32(m.n)
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

type kneeKey struct {
	p   Profile
	t   isa.Target
	sig uint64 // free-set signature of the layer at search time
}

// MaxProfMemoEntries and MaxKneeMemoEntries bound the memo maps. The
// entries are pure-function results, so eviction can never produce a
// wrong answer — the only cost is a recomputation — but without a bound
// a long sweep over many job shapes and fault-mutated capacities grows
// the maps without limit. When a map reaches its bound it is
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
// filling on miss; ph is p.hash(0). A slot holding a different key (a
// hash collision) is overwritten in place. The memos are lazily
// initialised because Systems are also built as composite literals
// (single-layer oracle systems).
func (s *System) memoProfileTime(p *Profile, ph uint64, t isa.Target, arrays int) event.Time {
	h := profHash(ph, t, arrays)
	e := s.profMemo.lookup(h)
	if e != nil && e.k.p == *p && e.k.t == t && e.k.arrays == arrays {
		s.cacheStats.ModelHits++
		return e.v
	}
	v := s.computeProfileTime(p, t, arrays)
	k := profKey{p: *p, t: t, arrays: arrays}
	if e != nil {
		e.k, e.v = k, v
	} else if s.profMemo.add(profEntry{h: h, k: k, v: v}) {
		s.cacheStats.Clears++
	}
	s.cacheStats.ModelMisses++
	return v
}

// memoKneeAlloc answers KneeAlloc from the memo, keyed by the layer's
// current free-set signature.
func (s *System) memoKneeAlloc(p *Profile, t isa.Target, sig uint64) (int, bool) {
	if v, ok := s.kneeMemo[kneeKey{p: *p, t: t, sig: sig}]; ok {
		s.cacheStats.KneeHits++
		return v, true
	}
	return 0, false
}

func (s *System) storeKneeAlloc(p *Profile, t isa.Target, sig uint64, alloc int) {
	if s.kneeMemo == nil {
		s.kneeMemo = make(map[kneeKey]int, 64)
	} else if len(s.kneeMemo) >= MaxKneeMemoEntries {
		clear(s.kneeMemo)
		s.cacheStats.Clears++
	}
	s.kneeMemo[kneeKey{p: *p, t: t, sig: sig}] = alloc
	s.cacheStats.KneeMisses++
}

// clearKneeMemo generation-clears the knee memo after a free-set
// change: entries keyed by signatures the layer has left behind can
// only be hit again if that exact set returns, so Degrade/Restore
// drops them wholesale rather than letting a churning fault plan strand
// one map generation per free-set it visits.
func (s *System) clearKneeMemo() {
	if len(s.kneeMemo) == 0 {
		return
	}
	clear(s.kneeMemo)
	s.cacheStats.Clears++
}
