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
// stateless), so the System memoizes it in a map keyed by a cheap
// 64-bit mix of the (profile, target, allocation) fields. The entry
// stores the full key: a lookup hits only when the stored key equals
// the query, so a hash collision costs one recomputation and an
// overwrite, never a wrong answer. Two jobs sharing a shape (every job
// of one app does) share entries.
//
// The knee search does not go through this memo. Its kneeGridPoints
// grid points are one-off allocations that would crowd the working set
// out of the bounded map; the search calls the model directly, and its
// result is memoized in the knee memo below instead.
//
// A System is not safe for concurrent use — the DDR controller already
// accumulates access statistics — so plain maps suffice; parallel
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

// profEntry is one model memo slot: the full key it was computed for
// and the modelled time.
type profEntry struct {
	k profKey
	v event.Time
}

// hash mixes every key field into 64 bits with a fixed multiply-xor
// step; Beta enters by its bit pattern. Equal keys always hash equal
// except +0/-0 Beta, which merely occupy two slots with one value; a
// NaN Beta never equals itself, so such a key always recomputes.
func (k *profKey) hash() uint64 {
	h := mix(0, uint64(k.p.UnitCycles))
	h = mix(h, uint64(k.p.RepUnit))
	h = mix(h, uint64(k.p.LoadBytes))
	h = mix(h, uint64(k.p.StoreBytes))
	h = mix(h, uint64(k.p.ProgramBytes))
	h = mix(h, math.Float64bits(k.p.Beta))
	h = mix(h, uint64(k.p.Overhead))
	h = mix(h, uint64(k.p.MaxUseful))
	h = mix(h, uint64(k.t))
	return mix(h, uint64(k.arrays))
}

func mix(h, v uint64) uint64 {
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

// memoProfileTime answers profileTime from the memo, computing and
// filling on miss. A slot holding a different key (a hash collision) is
// overwritten in place. The maps are lazily initialised because Systems
// are also built as composite literals (single-layer oracle systems).
func (s *System) memoProfileTime(p Profile, t isa.Target, arrays int) event.Time {
	k := profKey{p: p, t: t, arrays: arrays}
	h := k.hash()
	e, taken := s.profMemo[h]
	if taken && e.k == k {
		s.cacheStats.ModelHits++
		return e.v
	}
	v := s.computeProfileTime(p, t, arrays)
	if s.profMemo == nil {
		s.profMemo = make(map[uint64]profEntry, 256)
	} else if !taken && len(s.profMemo) >= MaxProfMemoEntries {
		clear(s.profMemo)
		s.cacheStats.Clears++
	}
	s.profMemo[h] = profEntry{k: k, v: v}
	s.cacheStats.ModelMisses++
	return v
}

// memoKneeAlloc answers KneeAlloc from the memo, keyed by the layer's
// current free-set signature.
func (s *System) memoKneeAlloc(p Profile, t isa.Target, sig uint64) (int, bool) {
	if v, ok := s.kneeMemo[kneeKey{p: p, t: t, sig: sig}]; ok {
		s.cacheStats.KneeHits++
		return v, true
	}
	return 0, false
}

func (s *System) storeKneeAlloc(p Profile, t isa.Target, sig uint64, alloc int) {
	if s.kneeMemo == nil {
		s.kneeMemo = make(map[kneeKey]int, 64)
	} else if len(s.kneeMemo) >= MaxKneeMemoEntries {
		clear(s.kneeMemo)
		s.cacheStats.Clears++
	}
	s.kneeMemo[kneeKey{p: p, t: t, sig: sig}] = alloc
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
