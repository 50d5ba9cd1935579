package sched

import (
	"cmp"
	"math"
	"slices"

	"mlimp/internal/event"
	"mlimp/internal/isa"
)

// Opts are the shared heuristic parameters of the adaptive and global
// schedulers.
type Opts struct {
	// Epsilon is the acceptable relative gap between queue means (and
	// between the longest job and the mean, for intra-queue adjustment).
	Epsilon float64
	// MaxAdjust bounds the adjustment iterations (the "up to N times" of
	// Algorithms 1 and 2).
	MaxAdjust int
	// MinArrays is the minimum allocation any job may be squeezed to.
	MinArrays int
}

// DefaultOpts mirrors the evaluation setup.
func DefaultOpts() Opts { return Opts{Epsilon: 0.05, MaxAdjust: 64, MinArrays: 1} }

// queueItem is one enqueued job with its planned allocation.
type queueItem struct {
	job    *Job
	arrays int
	// est caches ModelTime(job, layer, arrays) for the duration of one
	// sort pass (setEst), so comparisons do not re-query the model.
	est event.Time
}

// setEst refreshes every item's est at its current allocation on t.
func setEst(sys *System, t isa.Target, q []*queueItem) {
	for _, it := range q {
		it.est = sys.ModelTime(it.job, t, it.arrays)
	}
}

// queues maps each layer to its pending items.
type queues map[isa.Target][]*queueItem

// planAlloc is the allocation the planning stages assume a job will
// receive on layer t: the knee of its execution-time curve, floored by
// the fair share capacity/slots that the dispatcher's expansion will
// grant anyway. Planning with smaller allocations than dispatch grants
// would systematically overestimate queue drains and cause spurious
// migrations.
func planAlloc(sys *System, j *Job, t isa.Target) int {
	l := sys.Layers[t]
	fair := usefulCap(j, t, l.Capacity()/l.Slots)
	knee := sys.KneeAlloc(j, t)
	a := knee
	if fair > a && float64(sys.ModelTime(j, t, fair)) < float64(sys.ModelTime(j, t, knee)) {
		a = fair
	}
	return clampAlloc(sys, t, usefulCap(j, t, a))
}

// partition assigns every job to its best layer at the planned
// allocation. Items live in one arena allocation: the batch-path
// schedulers run per dispatched batch, so per-item heap traffic is the
// fleet benchmarks' dominant allocation source.
func partition(sys *System, jobs []*Job) queues {
	qs := queues{}
	for _, t := range sys.Targets() {
		qs[t] = nil
	}
	arena := make([]queueItem, len(jobs))
	router := &replicaRouter{sys: sys}
	for i, j := range jobs {
		// A job whose stage has a standing replica may route to the
		// replica's layer (the shrunk free set there would otherwise flip
		// its BestTarget away from the very capacity pinned for it), but
		// only while the router's pile-up model says the replicas still
		// beat the job's best pool target.
		bt, btime := sys.BestTarget(j)
		t := router.route(j, bt, btime)
		arena[i] = queueItem{job: j, arrays: planAlloc(sys, j, t)}
		qs[t] = append(qs[t], &arena[i])
	}
	return qs
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// usefulCap bounds an allocation by the job's useful-parallelism limit
// on target t: arrays beyond Profile.MaxUseful add no speedup but still
// block other jobs.
func usefulCap(j *Job, t isa.Target, arrays int) int {
	if p, ok := j.Est[t]; ok && p.MaxUseful > 0 && arrays > p.MaxUseful {
		return p.MaxUseful
	}
	return arrays
}

// clampAlloc bounds an allocation to what the layer can ever grant.
func clampAlloc(sys *System, t isa.Target, arrays int) int {
	if c := sys.Layers[t].Capacity(); arrays > c {
		arrays = c
	}
	if arrays < 1 {
		arrays = 1
	}
	return arrays
}

// queueMean returns the expected drain time of a queue: the summed
// estimated times of its items divided by the layer's parallel slots,
// floored by the longest single item (one job cannot drain faster than
// itself no matter how many slots are idle). This is the "mean execution
// time" Algorithm 1 balances — it reflects how long the queue's jobs
// are and how many wait per slot, so work flows toward idle layers but
// never onto a layer whose single-job time already exceeds the source's
// drain time.
//
// Jobs pinned to the layer's standing replicas drain through the
// replica channels at ReplicaTime, not through the pool slots: counting
// them as pool load (at pool model times, against pool slots) would
// inflate the layer's apparent congestion the moment a replica exists
// and drive Algorithm 1 to evacuate every movable job — the pinned jobs
// themselves cannot migrate, so the balance would converge to the same
// skewed partition at any replica count.
func queueMean(sys *System, t isa.Target, q []*queueItem) float64 {
	if len(q) == 0 {
		return 0
	}
	l := sys.Layers[t]
	var poolSum, repSum, longest float64
	for _, it := range q {
		var v float64
		if rt, ok := sys.replicaTargetFor(it.job); ok && rt == t {
			r := l.replicas[0]
			v = float64(sys.ReplicaTime(it.job.Est[t], t, r.Arrays))
			repSum += v
		} else {
			v = float64(sys.ModelTime(it.job, t, it.arrays))
			poolSum += v
		}
		if v > longest {
			longest = v
		}
	}
	drain := poolSum / float64(l.Slots)
	if n := len(l.replicas); n > 0 {
		if rd := repSum / float64(n); rd > drain {
			drain = rd
		}
	}
	if drain > longest {
		return drain
	}
	return longest
}

// itemMean returns the mean of a queue's cached per-item estimates
// (setEst), summed in queue order.
func itemMean(q []*queueItem) float64 {
	if len(q) == 0 {
		return 0
	}
	var sum float64
	for _, it := range q {
		sum += float64(it.est)
	}
	return sum / float64(len(q))
}

// interQueueAdjust is Algorithm 1: balance mean execution times between
// queues by migrating the job with the smallest execution time (in the
// destination memory) out of the fullest queue, while the gap exceeds
// epsilon and migration still improves the balance. Destinations are
// tried in ascending drain order: when the very shortest layer cannot
// profitably take any job (it may simply be much slower for this job
// mix), the next one is tried before giving up.
func interQueueAdjust(sys *System, qs queues, o Opts) {
	type qm struct {
		t isa.Target
		m float64
	}
	ranked := make([]qm, 0, len(qs))
	for iter := 0; iter < o.MaxAdjust; iter++ {
		ranked = ranked[:0]
		for t, q := range qs {
			ranked = append(ranked, qm{t, queueMean(sys, t, q)})
		}
		slices.SortFunc(ranked, func(a, b qm) int {
			if a.m != b.m {
				if a.m < b.m {
					return -1
				}
				return 1
			}
			return int(a.t) - int(b.t)
		})
		maxT, maxMean := ranked[len(ranked)-1].t, ranked[len(ranked)-1].m
		if maxMean == 0 {
			return
		}
		migrated := false
		for _, dst := range ranked[:len(ranked)-1] {
			if (maxMean-dst.m)/maxMean <= o.Epsilon {
				break // remaining destinations are even closer
			}
			if tryMigrate(sys, qs, maxT, dst.t, maxMean) {
				migrated = true
				break
			}
		}
		if !migrated {
			return // migration no longer contributes to improvement
		}
	}
}

// tryMigrate moves the cheapest-in-dst job from src to dst if doing so
// lowers the pairwise maximum drain time, reporting whether it did.
func tryMigrate(sys *System, qs queues, src, dst isa.Target, maxMean float64) bool {
	srcQ := qs[src]
	bestIdx, bestTime := -1, event.Time(math.MaxInt64)
	for i, it := range srcQ {
		if _, ok := it.job.Est[dst]; !ok {
			continue
		}
		if rt, ok := sys.replicaTargetFor(it.job); ok && rt == src {
			continue // pinned to its replicas; the mean does not see them
		}
		m := planAlloc(sys, it.job, dst)
		if tt := sys.ModelTime(it.job, dst, m); tt < bestTime {
			bestTime, bestIdx = tt, i
		}
	}
	if bestIdx < 0 {
		return false
	}
	cand := srcQ[bestIdx]
	newSrc := append(append([]*queueItem(nil), srcQ[:bestIdx]...), srcQ[bestIdx+1:]...)
	moved := &queueItem{job: cand.job, arrays: planAlloc(sys, cand.job, dst)}
	newDst := append(append([]*queueItem(nil), qs[dst]...), moved)
	newMax := math.Max(queueMean(sys, src, newSrc), queueMean(sys, dst, newDst))
	if newMax >= maxMean {
		return false
	}
	qs[src] = newSrc
	qs[dst] = newDst
	return true
}

// layerBacklog estimates how much work remains on layer t right now:
// the estimated times of its waiting items plus the remaining time of
// the in-flight jobs. A flight already past its estimated end has
// revealed that the estimate was wrong; the symmetric-overrun heuristic
// assumes it needs roughly as long again as it has already overrun.
func layerBacklog(sys *System, st *simState, t isa.Target, q []*queueItem) float64 {
	l := sys.Layers[t]
	var sum, repSum, longest float64
	for _, it := range q {
		// Replica-pinned items drain through the replica channels (see
		// queueMean); fold their serialised share into the backlog so a
		// layer with busy replicas still reads as loaded, without
		// charging them against the pool slots.
		if rt, ok := sys.replicaTargetFor(it.job); ok && rt == t {
			repSum += float64(sys.ReplicaTime(it.job.Est[t], t, l.replicas[0].Arrays))
			continue
		}
		v := float64(sys.ModelTime(it.job, t, it.arrays))
		sum += v
		if v > longest {
			longest = v
		}
	}
	for _, f := range st.flying {
		if f.target != t {
			continue
		}
		if f.estEnd > st.now {
			sum += float64(f.estEnd - st.now)
		} else {
			sum += float64(st.now - f.estEnd) // observed overrun continues
		}
	}
	drain := sum / float64(l.Slots)
	if n := len(l.replicas); n > 0 {
		if rd := repSum / float64(n); rd > drain {
			drain = rd
		}
	}
	if drain > longest {
		return drain
	}
	return longest
}

// rebalanceRuntime is the adaptive scheduler's self-adjustment: after
// every completion it re-compares layer backlogs — including observed
// overruns of in-flight jobs — and migrates waiting items from the most
// congested layer to the least, so predictor error is absorbed at
// runtime instead of stretching one queue's tail.
func rebalanceRuntime(sys *System, st *simState, qs queues, o Opts) {
	for iter := 0; iter < o.MaxAdjust; iter++ {
		var maxT, minT isa.Target
		maxB, minB := math.Inf(-1), math.Inf(1)
		for _, t := range sys.Targets() { // canonical order: determinism
			b := layerBacklog(sys, st, t, qs[t])
			if b > maxB {
				maxB, maxT = b, t
			}
			if b < minB {
				minB, minT = b, t
			}
		}
		if maxB == 0 || maxT == minT || (maxB-minB)/maxB <= o.Epsilon {
			return
		}
		srcQ := qs[maxT]
		bestIdx, bestTime := -1, event.Time(math.MaxInt64)
		for i, it := range srcQ {
			if _, ok := it.job.Est[minT]; !ok {
				continue
			}
			if rt, ok := sys.replicaTargetFor(it.job); ok && rt == maxT {
				continue // pinned to its replicas; the backlog does not see them
			}
			m := planAlloc(sys, it.job, minT)
			if tt := sys.ModelTime(it.job, minT, m); tt < bestTime {
				bestTime, bestIdx = tt, i
			}
		}
		if bestIdx < 0 {
			return
		}
		// Keep the migration only if it narrows the backlog gap; the
		// migrated job cannot finish faster than its own time there.
		newDst := minB + float64(bestTime)/float64(sys.Layers[minT].Slots)
		if bt := float64(bestTime); bt > newDst {
			newDst = bt
		}
		if newDst >= maxB {
			return
		}
		cand := srcQ[bestIdx]
		qs[maxT] = append(srcQ[:bestIdx], srcQ[bestIdx+1:]...)
		qs[minT] = append(qs[minT], &queueItem{
			job: cand.job, arrays: planAlloc(sys, cand.job, minT)})
	}
}

// Adaptive is the local adaptive scheduler of Section III-C4: per-layer
// queues balanced by inter-queue adjustment, greedy dispatch that gives
// priority to larger jobs, and opportunistic use of remainder resources
// for jobs that can finish before the in-flight ones.
type Adaptive struct {
	Opts Opts
}

// NewAdaptive returns an adaptive scheduler with default options.
func NewAdaptive() *Adaptive { return &Adaptive{Opts: DefaultOpts()} }

// Name implements Scheduler.
func (a *Adaptive) Name() string { return "adaptive" }

// Schedule implements Scheduler.
func (a *Adaptive) Schedule(sys *System, jobs []*Job) *Result {
	sys.EnsureReplicas(jobs)
	qs := partition(sys, jobs)
	interQueueAdjust(sys, qs, a.Opts)
	return dispatchWith(sys, qs, jobs, dispatchOpts{opportunistic: true, expand: true, rebalance: &a.Opts})
}

// dispatchOpts selects dispatch behaviour: opportunistic remainder fill
// (the adaptive scheduler), allocation expansion to fill idle capacity
// (the global scheduler's "fully utilize the resources" planning), and
// estMode (charge estimated instead of actual durations).
type dispatchOpts struct {
	opportunistic bool
	expand        bool
	estMode       bool
	// rebalance re-runs the inter-queue adjustment on the waiting items
	// after every completion — the runtime self-adjustment that lets the
	// adaptive scheduler absorb predictor error: a layer whose jobs run
	// longer than estimated keeps a deep queue, and the rebalance drains
	// it toward idle layers.
	rebalance *Opts
}

// dispatchWith executes per-layer queues greedily under the given
// behaviour flags. The original job slice rides along so the simulation
// state derives tenant pools in deterministic (submission) order.
func dispatchWith(sys *System, qs queues, jobs []*Job, o dispatchOpts) *Result {
	st := newSim(sys, jobs)
	st.estMode = o.estMode
	// Sort every queue descending by estimated time (larger jobs first).
	for _, t := range sys.Targets() {
		q := qs[t]
		setEst(sys, t, q)
		slices.SortStableFunc(q, func(a, b *queueItem) int { return cmp.Compare(b.est, a.est) })
	}
	pending := 0
	for _, q := range qs {
		pending += len(q)
	}
	for pending > 0 || st.flying.Len() > 0 {
		for _, t := range sys.Targets() { // canonical order: determinism
			q := qs[t]
			remaining := q[:0]
			waiting := len(q)
			for _, it := range q {
				// Expand the grant when capacity would otherwise idle:
				// the global scheduler "adjusts the allocation size in
				// each queue to fully utilize the resources", and idle
				// arrays are pure waste under the monotone model.
				grant := minInt(it.arrays, st.maxGrant(t, it.job.Tenant))
				ff := st.freeFor(t, it.job.Tenant)
				if usable := minInt(st.slots[t], waiting); o.expand && usable > 0 {
					// Expand only when the model agrees it helps: the
					// curve is not guaranteed monotone once replication
					// copy costs enter t_ld, and arrays beyond the
					// useful-parallelism cap are wasted.
					fair := usefulCap(it.job, t, ff/usable)
					if fair > grant &&
						sys.ModelTime(it.job, t, fair) < sys.ModelTime(it.job, t, grant) {
						grant = fair
					}
				}
				// A free stage replica takes the job without touching the
				// pool or a slot — unless the pool's grant would beat it;
				// fall through to pool placement when all replicas are
				// busy.
				if st.placeReplica(it.job, t, grant) {
					pending--
					waiting--
					continue
				}
				switch {
				case st.canPlace(t, grant, it.job.Tenant):
					st.place(it.job, t, grant)
					pending--
					waiting--
				case o.opportunistic && st.slots[t] > 0 && ff > 0:
					// Remainder fill: run early with whatever is free if
					// that still beats waiting for the next completion.
					if end, ok := st.earliestEnd(t); ok {
						rem := ff
						if st.now+sys.ModelTime(it.job, t, rem) < end {
							st.place(it.job, t, rem)
							pending--
							waiting--
							continue
						}
					}
					remaining = append(remaining, it)
				default:
					remaining = append(remaining, it)
				}
			}
			qs[t] = remaining
		}
		progressed := st.advance()
		if progressed && o.rebalance != nil && pending > 0 {
			rebalanceRuntime(sys, st, qs, *o.rebalance)
		}
		if !progressed && pending > 0 {
			// No progress possible with planned allocations: shrink the
			// head of each stuck queue to the free capacity.
			stuck := true
			for _, t := range sys.Targets() {
				q := qs[t]
				if len(q) == 0 {
					continue
				}
				if ff := st.freeFor(t, q[0].job.Tenant); st.slots[t] > 0 && ff > 0 {
					q[0].arrays = ff
					stuck = false
				}
			}
			if stuck {
				panic("sched: dispatch deadlock")
			}
		}
	}
	return st.result
}
