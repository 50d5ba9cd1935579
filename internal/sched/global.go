package sched

import (
	"cmp"
	"math"
	"slices"

	"mlimp/internal/isa"
)

// Global is the global scheduler of Section III-C5: on top of the
// adaptive partition and inter-queue balancing it applies the
// intra-queue adjustment of Algorithm 2 — trading allocation from the
// smallest jobs to the longest so every job finishes near the queue
// mean — and then commits to the complete dispatching schedule computed
// in advance (no opportunistic re-planning, which is why its advantage
// inverts under a noisy predictor).
type Global struct {
	Opts Opts
}

// NewGlobal returns a global scheduler with default options.
func NewGlobal() *Global { return &Global{Opts: DefaultOpts()} }

// Name implements Scheduler.
func (g *Global) Name() string { return "global" }

// Schedule implements Scheduler.
func (g *Global) Schedule(sys *System, jobs []*Job) *Result {
	sys.EnsureReplicas(jobs)
	qs := partition(sys, jobs)
	interQueueAdjust(sys, qs, g.Opts)
	for _, t := range sys.Targets() {
		intraQueueAdjust(sys, t, qs[t], g.Opts)
	}
	// Plan the complete dispatching schedule in advance against the
	// estimates, then execute it rigidly: per-layer order and
	// allocations are fixed, so bubbles appear exactly when the
	// estimates were wrong (the Section V-B3 noise sensitivity).
	plan := dispatchEst(sys, qs, jobs)
	return executePlan(sys, plan, jobs)
}

// dispatchEst simulates the greedy dispatch entirely on estimated times
// and returns the per-layer planned order.
func dispatchEst(sys *System, qs queues, jobs []*Job) map[isa.Target][]*queueItem {
	// Copy the queues: dispatch consumes them. One arena per copy keeps
	// the per-item heap traffic out of the per-batch hot path.
	cp := queues{}
	n := 0
	for _, t := range sys.Targets() {
		n += len(qs[t])
	}
	arena := make([]queueItem, n)
	i := 0
	for _, t := range sys.Targets() {
		items := make([]*queueItem, len(qs[t]))
		for k, it := range qs[t] {
			arena[i] = queueItem{job: it.job, arrays: it.arrays}
			items[k] = &arena[i]
			i++
		}
		cp[t] = items
	}
	res := dispatchWith(sys, cp, jobs, dispatchOpts{expand: true, estMode: true})
	planArena := make([]queueItem, len(res.Assignments))
	plan := map[isa.Target][]*queueItem{}
	for i, a := range res.Assignments {
		planArena[i] = queueItem{job: a.Job, arrays: a.Arrays}
		plan[a.Target] = append(plan[a.Target], &planArena[i])
	}
	// Assignments are completion-ordered; re-order by planned start.
	starts := map[int]int64{}
	for _, a := range res.Assignments {
		starts[a.Job.ID] = int64(a.Start)
	}
	for _, q := range plan {
		sortItemsByKey(q, starts)
	}
	return plan
}

func sortItemsByKey(q []*queueItem, key map[int]int64) {
	slices.SortStableFunc(q, func(a, b *queueItem) int {
		ka, kb := key[a.job.ID], key[b.job.ID]
		switch {
		case ka < kb:
			return -1
		case ka > kb:
			return 1
		}
		return 0
	})
}

// executePlan runs the fixed plan with actual job durations, starting
// each layer's jobs strictly in planned order.
func executePlan(sys *System, plan map[isa.Target][]*queueItem, jobs []*Job) *Result {
	st := newSim(sys, jobs)
	pending := 0
	for _, q := range plan {
		pending += len(q)
	}
	for pending > 0 || st.flying.Len() > 0 {
		for _, t := range sys.Targets() { // canonical order: determinism
			q := plan[t]
			for len(q) > 0 {
				head := q[0]
				arrays := clampAlloc(sys, t, minInt(head.arrays, st.maxGrant(t, head.job.Tenant)))
				if st.placeReplica(head.job, t, arrays) {
					q = q[1:]
					pending--
					continue
				}
				if !st.canPlace(t, arrays, head.job.Tenant) {
					break
				}
				st.place(head.job, t, arrays)
				q = q[1:]
				pending--
			}
			plan[t] = q
		}
		if !st.advance() && pending > 0 {
			panic("sched: plan execution deadlock")
		}
	}
	return st.result
}

// invAllocForTime returns the smallest allocation m that brings job j's
// modelled time on t at or below target — t_max^{-1}(mean_t) of
// Algorithm 2 — found by bisection on the monotone model, capped at the
// layer capacity.
func invAllocForTime(sys *System, j *Job, t isa.Target, target float64) int {
	lo, hi := 1, usefulCap(j, t, sys.Layers[t].Capacity())
	if float64(sys.ModelTime(j, t, hi)) > target {
		return hi // unreachable even at full capacity
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if float64(sys.ModelTime(j, t, mid)) <= target {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// intraQueueAdjust is Algorithm 2 applied to one queue.
func intraQueueAdjust(sys *System, t isa.Target, q []*queueItem, o Opts) {
	if len(q) < 2 {
		return
	}
	for iter := 0; iter < o.MaxAdjust; iter++ {
		// Sort by t(x, z(x)) — current estimated time at planned alloc.
		setEst(sys, t, q)
		slices.SortStableFunc(q, func(a, b *queueItem) int { return cmp.Compare(a.est, b.est) })
		minItem, maxItem := q[0], q[len(q)-1]
		maxT := float64(maxItem.est)
		mean := itemMean(q)
		if maxT == 0 || (maxT-mean)/maxT <= o.Epsilon {
			return
		}
		want := invAllocForTime(sys, maxItem.job, t, mean)
		swapCnt := want - maxItem.arrays
		// The donor may only give resources down to the point where it
		// would itself exceed the mean (and never below MinArrays) —
		// otherwise the smallest job just becomes the new tail.
		donorFloor := invAllocForTime(sys, minItem.job, t, mean)
		if donorFloor < o.MinArrays {
			donorFloor = o.MinArrays
		}
		if avail := minItem.arrays - donorFloor; swapCnt > avail {
			swapCnt = avail
		}
		if swapCnt <= 0 {
			return // the smallest job is already at its floor
		}
		minItem.arrays -= swapCnt
		maxItem.arrays += swapCnt
	}
}

// OracleThroughput returns the perfect-balance upper bound of Figure 16:
// the sum of each layer's standalone throughput on the batch, i.e. the
// job rate achievable if work could be split so all memories finish
// together.
func OracleThroughput(sys *System, jobs []*Job) float64 {
	var total float64
	for _, t := range sys.Targets() {
		single := &System{Layers: map[isa.Target]*Layer{t: sys.Layers[t]}, DDR: sys.DDR}
		runnable := jobs[:0:0]
		for _, j := range jobs {
			if _, ok := j.Est[t]; ok {
				runnable = append(runnable, j)
			}
		}
		if len(runnable) == 0 {
			continue
		}
		// The per-layer bound is the best any scheduler achieves on
		// that layer alone.
		best := 0.0
		for _, sc := range []Scheduler{NewGlobal(), NewAdaptive(), LJF{}} {
			if thr := sc.Schedule(single, runnable).Throughput(); thr > best {
				best = thr
			}
		}
		total += best
	}
	return total
}

// OracleFraction returns result throughput as a fraction of the oracle.
func OracleFraction(sys *System, jobs []*Job, res *Result) float64 {
	o := OracleThroughput(sys, jobs)
	if o == 0 {
		return math.NaN()
	}
	return res.Throughput() / o
}
