package sched

import (
	"cmp"
	"math"
	"slices"

	"mlimp/internal/event"
	"mlimp/internal/isa"
)

// LJF is the Longest-Job-First baseline of Section III-C2: one queue in
// descending order of the (shortest per-memory) estimated time, a fixed
// allocation a_unit = capacity / P per layer, and head-of-queue dispatch
// to the best-performing memory.
//
// Strict selects the Figure 16 "naive" variant that always waits for the
// globally best memory; the default dispatches to the best *available*
// memory when the best one is saturated.
type LJF struct {
	Strict bool
}

// Name implements Scheduler.
func (l LJF) Name() string {
	if l.Strict {
		return "naive-ljf"
	}
	return "ljf"
}

// aUnit returns the fixed LJF allocation for a layer: max_size / P.
func aUnit(sys *System, t isa.Target) int {
	layer := sys.Layers[t]
	u := layer.Capacity() / layer.Slots
	if u < 1 {
		u = 1
	}
	return u
}

// ljfItem is one job in LJF's single queue with its best layer and its
// estimated time there.
type ljfItem struct {
	job  *Job
	best isa.Target
	est  event.Time
}

// ljfGrant clamps the fixed unit allocation to what the job's tenant
// can ever hold on t (multi-tenant packing caps), flooring at one.
func ljfGrant(sys *System, st *simState, j *Job, t isa.Target) int {
	g := minInt(aUnit(sys, t), st.maxGrant(t, j.Tenant))
	if g < 1 {
		g = 1
	}
	return g
}

// estAtUnit returns the estimated time of j on t at the fixed unit
// allocation.
func estAtUnit(sys *System, j *Job, t isa.Target) event.Time {
	if !j.Est.Has(t) {
		return math.MaxInt64
	}
	return sys.ModelTime(j, t, aUnit(sys, t))
}

// Schedule implements Scheduler.
func (l LJF) Schedule(sys *System, jobs []*Job) *Result {
	sys.EnsureReplicas(jobs)
	st := newSim(sys, jobs, false)
	// Single queue, descending estimated time (the descending order of
	// the shortest execution time across memories).
	sys.ws.ljf = resize(sys.ws.ljf, len(jobs))
	queue := sys.ws.ljf
	router := &replicaRouter{sys: sys}
	for i, j := range jobs {
		bt, bv := isa.Target(0), event.Time(math.MaxInt64)
		for _, t := range sys.Targets() {
			if v := estAtUnit(sys, j, t); v < bv {
				bv, bt = v, t
			}
		}
		// Stage jobs route to their standing replicas while the router's
		// pile-up model says the replicas still beat the pool.
		queue[i] = ljfItem{job: j, best: router.route(j, bt, bv), est: bv}
	}
	slices.SortStableFunc(queue, func(a, b ljfItem) int { return cmp.Compare(b.est, a.est) })

	for len(queue) > 0 || st.flying.Len() > 0 {
		progressed := true
		for progressed && len(queue) > 0 {
			progressed = false
			j, best := queue[0].job, queue[0].best
			if st.placeReplica(j, best, ljfGrant(sys, st, j, best)) {
				queue = queue[1:]
				progressed = true
				continue
			}
			if t, ok := l.pick(sys, st, j, best); ok {
				st.place(j, t, ljfGrant(sys, st, j, t))
				queue = queue[1:]
				progressed = true
			}
		}
		if !st.advance() && len(queue) > 0 {
			panic("sched: ljf deadlock") // cannot happen: aUnit always fits an idle layer
		}
	}
	return st.finish()
}

// pick chooses where to run the head job now, if anywhere.
func (l LJF) pick(sys *System, st *simState, j *Job, bestT isa.Target) (isa.Target, bool) {
	if st.canPlace(bestT, ljfGrant(sys, st, j, bestT), j.Tenant) {
		return bestT, true
	}
	if l.Strict {
		return 0, false // naive: wait for the best memory
	}
	bv := event.Time(math.MaxInt64)
	var bt isa.Target
	found := false
	for _, t := range sys.Targets() {
		if !st.canPlace(t, ljfGrant(sys, st, j, t), j.Tenant) {
			continue
		}
		if v := estAtUnit(sys, j, t); v < bv {
			bv, bt, found = v, t, true
		}
	}
	return bt, found
}
