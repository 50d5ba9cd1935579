package sched

import "mlimp/internal/isa"

// Array-granular capacity degradation. When arrays fail in the field
// (internal/fault), the scheduler must re-plan against the shrunk layer
// rather than keep issuing knee-sized allocations the device can no
// longer grant. Degrade names the exact physical IDs it decommissions —
// deterministically, the highest in-service IDs first — and pushes each
// removed set onto a LIFO stack, so
// Restore returns precisely the IDs that were lost. Because KneeAlloc
// is memoized per (profile, target, free-set signature), the next
// lookup after a Degrade/Restore misses under the new signature and
// re-runs the knee search on the degraded curve; stale entries are
// generation-cleared so the memo stays bounded across long
// fault-churning sweeps (see costcache.go).

// Degrade removes n arrays from layer t, flooring the layer at one
// array so jobs that only run there remain schedulable (slowly) rather
// than unroutable. The highest in-service IDs are decommissioned first.
// It returns the number of arrays actually removed; DegradedIDs names
// them.
func (s *System) Degrade(t isa.Target, n int) int {
	l := s.Layers[t]
	if l == nil || n <= 0 {
		return 0
	}
	// Replicas are reclaimed first: a standing replica is pure spare
	// capacity, so it is torn down (its config remembered for Restore)
	// before any pool array is decommissioned. Replica sets were carved
	// with TakeHighest, so the TakeHighest below eats the ex-replica IDs
	// before touching the low-ID pool region.
	if len(l.replicas) > 0 {
		l.repWant = &repSpec{
			stage: l.replicas[0].Stage, prof: l.replicas[0].Prof,
			arrays: l.replicas[0].Arrays, count: len(l.replicas),
		}
		for i := len(l.replicas) - 1; i >= 0; i-- {
			l.avail.Add(l.replicas[i].Set)
		}
		l.replicas = nil
	}
	if max := l.avail.Count() - 1; n > max {
		n = max
	}
	if n > 0 {
		removed := l.avail.TakeHighest(n)
		l.lost = append(l.lost, removed)
	} else {
		n = 0
	}
	l.refreshSig()
	s.clearKneeMemo()
	return n
}

// Restore returns n previously lost arrays to layer t (bounded by what
// is actually lost, so capacity can never exceed the healthy baseline).
// Sets come back in LIFO order — the exact IDs the matching Degrade
// removed. It returns the number of arrays actually restored.
func (s *System) Restore(t isa.Target, n int) int {
	l := s.Layers[t]
	if l == nil || n <= 0 || len(l.lost) == 0 {
		return 0
	}
	restored := 0
	for n > 0 && len(l.lost) > 0 {
		top := &l.lost[len(l.lost)-1]
		if c := top.Count(); c <= n {
			l.avail.Add(*top)
			l.lost = l.lost[:len(l.lost)-1]
			n -= c
			restored += c
		} else {
			l.avail.Add(top.TakeHighest(n))
			restored += n
			n = 0
		}
	}
	// Rebuilt on Restore: if a Degrade tore down a standing replica set,
	// re-carve as much of it as the recovered capacity's idle budget
	// affords. A partial rebuild keeps repWant so later Restores finish
	// the job; EnsureReplicas re-plans it anyway on the next batch.
	if s.Replication == ReplicateWhenIdle && l.repWant != nil {
		w := l.repWant
		m := replicaBudget(l.avail.Count()+replicaArrays(l)) - replicaArrays(l)
		m /= w.arrays
		if m > w.count-len(l.replicas) {
			m = w.count - len(l.replicas)
		}
		for i := 0; i < m; i++ {
			l.replicas = append(l.replicas, Replica{
				Stage: w.stage, Prof: w.prof, Arrays: w.arrays,
				Set: l.avail.TakeHighest(w.arrays),
			})
		}
		if len(l.replicas) >= w.count {
			l.repWant = nil
		}
	}
	l.refreshSig()
	s.clearKneeMemo()
	return restored
}

// replicaArrays counts the arrays currently pinned into l's replicas.
func replicaArrays(l *Layer) int {
	n := 0
	for _, r := range l.replicas {
		n += r.Arrays
	}
	return n
}

// DegradedIDs returns the array IDs of layer t currently out of
// service, across every outstanding Degrade.
func (s *System) DegradedIDs(t isa.Target) ArraySet {
	l := s.Layers[t]
	if l == nil {
		return ArraySet{}
	}
	var out ArraySet
	for _, set := range l.lost {
		out.Add(set)
	}
	return out
}

// Lost returns the number of arrays of layer t currently lost to
// faults. Arrays pinned into standing replicas are in service, not
// lost.
func (s *System) Lost(t isa.Target) int {
	l := s.Layers[t]
	if l == nil {
		return 0
	}
	return l.universe - l.avail.Count() - replicaArrays(l)
}

// LostTotal returns the arrays lost to faults across all layers.
func (s *System) LostTotal() int {
	total := 0
	for _, t := range s.Targets() {
		total += s.Lost(t)
	}
	return total
}

// HealthyCapacity returns layer t's fault-free capacity: every array
// the layer owns, in service or not.
func (s *System) HealthyCapacity(t isa.Target) int {
	if l := s.Layers[t]; l != nil {
		return l.universe
	}
	return 0
}
