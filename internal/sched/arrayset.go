package sched

import (
	"fmt"
	"strings"
)

// Array-set resource model. A layer's allocatable arrays are physical
// IDs 0..N-1; free capacity, placements, and decommissioned arrays are
// all ArraySets, so the scheduler always knows *which* arrays a job
// holds — the granularity MASIM-style conflict-aware scheduling and
// multi-tenant isolation need. Sets are kept as sorted span lists
// rather than bitmaps: ReRAM has 86,016 arrays, and placements are
// overwhelmingly contiguous runs, so a span list is both smaller and
// cheaper than 10 KB of bitmap per placement.

// Span is a half-open run [Lo, Hi) of physical array IDs.
type Span struct{ Lo, Hi int }

func (s Span) count() int { return s.Hi - s.Lo }

// ArraySet is a set of physical array IDs, stored as sorted,
// non-overlapping, non-adjacent spans. The zero value is the empty set.
type ArraySet struct {
	spans []Span
}

// NewRange returns the set [lo, hi).
func NewRange(lo, hi int) ArraySet {
	if hi <= lo {
		return ArraySet{}
	}
	return ArraySet{spans: []Span{{lo, hi}}}
}

// Count returns the number of IDs in the set.
func (a ArraySet) Count() int {
	n := 0
	for _, s := range a.spans {
		n += s.count()
	}
	return n
}

// Empty reports whether the set holds no IDs.
func (a ArraySet) Empty() bool { return len(a.spans) == 0 }

// Spans returns the underlying span list (read-only view).
func (a ArraySet) Spans() []Span { return a.spans }

// Clone returns an independent copy.
func (a ArraySet) Clone() ArraySet {
	if len(a.spans) == 0 {
		return ArraySet{}
	}
	return ArraySet{spans: append([]Span(nil), a.spans...)}
}

// TakeLowest removes the n lowest IDs from a and returns them as a new
// set. It panics if the set holds fewer than n IDs: callers gate on
// free counts first, so a shortfall is an accounting bug.
func (a *ArraySet) TakeLowest(n int) ArraySet {
	if n <= 0 {
		return ArraySet{}
	}
	return ArraySet{spans: a.takeLowestAppend(nil, n)}
}

// takeLowestAppend removes the n lowest IDs, appending the taken spans
// to buf and returning the extended buffer — the allocation-free path
// behind TakeLowest that the scheduler sim feeds from its workspace
// arena. Spans taken whole are dropped by shifting the rest down, not by
// advancing the slice start, so the set keeps all of its storage's room
// for later Adds.
func (a *ArraySet) takeLowestAppend(buf []Span, n int) []Span {
	k := 0 // spans taken whole
	for n > 0 {
		if k == len(a.spans) {
			panic("sched: TakeLowest past end of ArraySet")
		}
		s := &a.spans[k]
		if c := s.count(); c <= n {
			buf = append(buf, *s)
			n -= c
			k++
		} else {
			buf = append(buf, Span{s.Lo, s.Lo + n})
			s.Lo += n
			n = 0
		}
	}
	if k > 0 {
		a.spans = a.spans[:copy(a.spans, a.spans[k:])]
	}
	return buf
}

// TakeHighest removes the n highest IDs from a and returns them as a
// new set. Panics on shortfall, like TakeLowest.
func (a *ArraySet) TakeHighest(n int) ArraySet {
	if n <= 0 {
		return ArraySet{}
	}
	var out []Span
	for n > 0 {
		if len(a.spans) == 0 {
			panic("sched: TakeHighest past end of ArraySet")
		}
		last := len(a.spans) - 1
		s := &a.spans[last]
		if c := s.count(); c <= n {
			out = append(out, *s)
			n -= c
			a.spans = a.spans[:last]
		} else {
			out = append(out, Span{s.Hi - n, s.Hi})
			s.Hi -= n
			n = 0
		}
	}
	// out was collected high-to-low; reverse into sorted order.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return ArraySet{spans: out}
}

// Add merges set b into a (in place). b's spans must be disjoint from
// a's — IDs are returned to exactly the pool they were taken from, so
// overlap is a double-free.
func (a *ArraySet) Add(b ArraySet) {
	for _, s := range b.spans {
		a.addSpan(s)
	}
}

// addSpan inserts one span, coalescing with adjacent neighbours.
func (a *ArraySet) addSpan(s Span) {
	if s.count() <= 0 {
		return
	}
	// Find the insertion point: first span with Lo >= s.Lo.
	i := 0
	for i < len(a.spans) && a.spans[i].Lo < s.Lo {
		i++
	}
	if i > 0 && a.spans[i-1].Hi > s.Lo {
		panic("sched: ArraySet.Add overlap (double free)")
	}
	if i < len(a.spans) && s.Hi > a.spans[i].Lo {
		panic("sched: ArraySet.Add overlap (double free)")
	}
	// Coalesce with the previous span when adjacent.
	if i > 0 && a.spans[i-1].Hi == s.Lo {
		a.spans[i-1].Hi = s.Hi
		// And with the next, if the merge bridged the gap.
		if i < len(a.spans) && a.spans[i-1].Hi == a.spans[i].Lo {
			a.spans[i-1].Hi = a.spans[i].Hi
			a.spans = append(a.spans[:i], a.spans[i+1:]...)
		}
		return
	}
	// Coalesce with the next span when adjacent.
	if i < len(a.spans) && s.Hi == a.spans[i].Lo {
		a.spans[i].Lo = s.Lo
		return
	}
	a.spans = append(a.spans, Span{})
	copy(a.spans[i+1:], a.spans[i:])
	a.spans[i] = s
}

// Intersects reports whether the two sets share any ID — the predicate
// behind the multi-tenant isolation invariant.
func (a ArraySet) Intersects(b ArraySet) bool {
	i, j := 0, 0
	for i < len(a.spans) && j < len(b.spans) {
		x, y := a.spans[i], b.spans[j]
		if x.Lo < y.Hi && y.Lo < x.Hi {
			return true
		}
		if x.Hi <= y.Hi {
			i++
		} else {
			j++
		}
	}
	return false
}

// Contains reports whether every ID of b is in a.
func (a ArraySet) Contains(b ArraySet) bool {
	i := 0
	for _, s := range b.spans {
		for i < len(a.spans) && a.spans[i].Hi <= s.Lo {
			i++
		}
		if i >= len(a.spans) || a.spans[i].Lo > s.Lo || a.spans[i].Hi < s.Hi {
			return false
		}
	}
	return true
}

// Signature returns a canonical FNV-1a hash of the span list — the
// free-set key the knee/cost memos use instead of a bare capacity
// integer. Equal sets always hash equal; the span representation is
// canonical (sorted, coalesced), so the signature is too.
func (a ArraySet) Signature() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	for _, s := range a.spans {
		mix(uint64(s.Lo))
		mix(uint64(s.Hi))
	}
	return h
}

// String renders the set as "[0,4) [6,8)" for diagnostics.
func (a ArraySet) String() string {
	if len(a.spans) == 0 {
		return "{}"
	}
	var sb strings.Builder
	for i, s := range a.spans {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "[%d,%d)", s.Lo, s.Hi)
	}
	return sb.String()
}
