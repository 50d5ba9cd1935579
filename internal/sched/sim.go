package sched

import (
	"fmt"

	"mlimp/internal/event"
	"mlimp/internal/isa"
)

// Assignment records one job's placement in a schedule.
type Assignment struct {
	Job    *Job
	Target isa.Target
	Arrays int
	// ArrayIDs names the physical arrays the placement held — the
	// array-granular record behind the multi-tenant isolation invariant
	// and array-level fault attribution.
	ArrayIDs ArraySet
	// Tenant echoes the job's tenant tag at placement time.
	Tenant string
	Start  event.Time
	End    event.Time
}

// Result is the outcome of scheduling and simulating a batch.
type Result struct {
	Makespan    event.Time
	Assignments []Assignment
	// BusyTime accumulates job-occupancy time per layer (a utilisation
	// proxy: busy slot-time, not array-time).
	BusyTime [isa.NumTargets]event.Time
}

// Throughput returns completed jobs per second.
func (r *Result) Throughput() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(len(r.Assignments)) / r.Makespan.Seconds()
}

// String summarises the result.
func (r *Result) String() string {
	return fmt.Sprintf("result(jobs=%d makespan=%.3fms)", len(r.Assignments), r.Makespan.Millis())
}

// TenantsTouching returns the tenants holding any assignment that
// overlaps the given array set on target t — the eviction set when
// those arrays are decommissioned mid-flight.
func (r *Result) TenantsTouching(t isa.Target, ids ArraySet) []string {
	var out []string
	seen := map[string]bool{}
	for _, a := range r.Assignments {
		if a.Target == t && a.ArrayIDs.Intersects(ids) && !seen[a.Tenant] {
			seen[a.Tenant] = true
			out = append(out, a.Tenant)
		}
	}
	return out
}

// Scheduler maps a batch of jobs onto the system and returns the
// simulated outcome.
type Scheduler interface {
	Name() string
	Schedule(sys *System, jobs []*Job) *Result
}

// --- shared event-driven execution state ---

type flight struct {
	job    *Job
	target isa.Target
	arrays int
	set    ArraySet // the physical arrays held
	pool   *pool    // where set returns on completion; nil on a replica
	rep    int      // 1-based replica index on target; 0 = pool placement
	start  event.Time
	end    event.Time
	estEnd event.Time // start + estimated duration (scheduler belief)
}

// flightHeap is a hand-rolled min-heap on end time. The sift directions
// mirror container/heap exactly (strict-less comparisons, left child
// preferred on ties) so pop order is unchanged, but push/pop take and
// return flight values directly — container/heap's any-boxed interface
// allocates twice per placement, which the fleet benchmarks pay per job.
type flightHeap []flight

func (h flightHeap) Len() int { return len(h) }

func (h *flightHeap) push(f flight) {
	*h = append(*h, f)
	o := *h
	i := len(o) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(o[i].end < o[parent].end) {
			break
		}
		o[i], o[parent] = o[parent], o[i]
		i = parent
	}
}

func (h *flightHeap) pop() flight {
	o := *h
	n := len(o) - 1
	f := o[0]
	o[0] = o[n]
	o[n] = flight{} // drop the job pointer
	o = o[:n]
	*h = o
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && o[l].end < o[least].end {
			least = l
		}
		if r < n && o[r].end < o[least].end {
			least = r
		}
		if least == i {
			break
		}
		o[i], o[least] = o[least], o[i]
		i = least
	}
	return f
}

// pool is one allocatable set of arrays: the shared per-target free set,
// or a tenant's partitioned region. free mirrors avail.Count() so hot
// capacity checks stay O(1).
type pool struct {
	avail ArraySet
	free  int
}

func (p *pool) put(set ArraySet) {
	p.free += set.Count()
	p.avail.Add(set)
}

// tenantState is the per-tenant packing state of one simulation.
type tenantState struct {
	// region is the tenant's private pool on each target in regional
	// under PackPartitioned; elsewhere the tenant uses the shared pool
	// (first-fit fallback on layers too small to split).
	region   [isa.NumTargets]pool
	regional TargetMask
	// cap is the largest allocation this tenant can ever hold on a
	// target (region size / weighted-fair quota) — the grant clamp that
	// keeps strict plan execution deadlock-free.
	cap [isa.NumTargets]int
	// held counts arrays currently in flight under PackWeightedFair.
	held [isa.NumTargets]int
}

// simState tracks resource occupancy during schedule execution. With
// estMode set, placements are charged their estimated (model) time
// instead of the actual time — used by the global scheduler's planning
// pass. Isolation is structural: every placement takes its ArraySet
// from exactly one pool and returns it to that pool, and distinct
// tenants never draw overlapping IDs.
type simState struct {
	sys     *System
	now     event.Time
	slots   [isa.NumTargets]int
	shared  [isa.NumTargets]pool
	packing Packing
	// tenants is non-nil only for multi-tenant batches under a packing
	// policy that needs per-tenant state; the single-tenant (and
	// first-fit) path never consults it.
	tenants map[string]*tenantState
	// reps mirrors each layer's standing replicas with a per-sim busy
	// flag: a replica serves one job at a time, holding no pool arrays
	// and no dispatch slot (the replica IS the pipeline). Serial use
	// keeps the tenant-isolation invariant — no array is held by two
	// tenants at overlapping instants — even when tenants share a
	// replica across time.
	reps    [isa.NumTargets][]repSim
	flying  flightHeap
	result  *Result
	estMode bool
	// arena backs every span slice the sim creates — the pool free sets
	// (carved with headroom for fragmentation) and each placement's taken
	// set — so the pools grow and take without allocating. It belongs to
	// the System's workspace and is reset by the next sim, so finish
	// copies the taken sets a returned Result keeps out of it.
	arena []Span
}

// workspace is the scratch memory one System reuses across Schedule
// calls: everything a call builds and throws away — the partition's
// queues and items, the migration trial queues, the planning copies and
// plan, the simulation state with its flight heap and span arena, the
// tenant tables and the planning Result. Each call resets what it uses
// instead of reallocating it, so a warm Schedule allocates only the
// Result it returns. Like the cost-model memos, it makes a System
// unsafe for concurrent use.
type workspace struct {
	qs, cp, plan   queues
	items          []queueItem // partition's items
	cpItems        []queueItem // dispatchEst's copies of them
	planItems      []queueItem // the planned dispatch
	migSrc, migDst []*queueItem
	ljf            []ljfItem

	sim     simState
	planRes Result

	tenantOrder []string
	tenantCount map[string]int
	tenantMap   map[string]*tenantState
	tenantBuf   []tenantState
}

// resize returns buf with length n, reusing its storage when it is
// large enough. The contents are left as they were.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// newSim resets the System's simulation state for one batch. The jobs
// are scanned for tenant tags (first-appearance order, so the partition
// layout is deterministic in job order); a batch where every job shares
// one tenant — tagged or not — runs on the shared-pool fast path
// identical to the pre-tenant scheduler. A planning sim (estMode)
// records into the workspace's Result; any other sim records into a
// fresh Result for the caller.
func newSim(sys *System, jobs []*Job, estMode bool) *simState {
	ws := &sys.ws
	st := &ws.sim
	*st = simState{
		sys:     sys,
		packing: sys.Packing,
		estMode: estMode,
		reps:    st.reps,
		flying:  st.flying[:0],
		arena:   st.arena[:0],
	}
	if estMode {
		ws.planRes = Result{Assignments: ws.planRes.Assignments[:0]}
		st.result = &ws.planRes
	} else {
		st.result = &Result{Assignments: make([]Assignment, 0, len(jobs))}
	}
	if n := 8*len(jobs) + 64; cap(st.arena) < n {
		st.arena = make([]Span, 0, n)
	}
	// Free-set fragmentation is bounded by the number of concurrent
	// flights, so each pool gets that much in-place growth before an
	// Add has to reallocate it away from the arena.
	head := len(jobs) + 4
	for _, t := range sys.Targets() {
		l := sys.Layers[t]
		start := len(st.arena)
		st.arena = append(st.arena, l.avail.Spans()...)
		st.shared[t] = pool{avail: st.carve(start, head), free: l.avail.Count()}
		st.slots[t] = l.Slots
		rs := st.reps[t][:0]
		for _, r := range l.replicas {
			rs = append(rs, repSim{stage: r.Stage, arrays: r.Arrays, set: r.Set})
		}
		st.reps[t] = rs
	}
	if st.packing == PackFirstFit {
		return st // tenant-agnostic: one shared pool, lowest IDs first
	}
	order := ws.tenantOrder[:0]
	if ws.tenantCount == nil {
		ws.tenantCount = map[string]int{}
	}
	count := ws.tenantCount
	clear(count)
	for _, j := range jobs {
		if _, ok := count[j.Tenant]; !ok {
			order = append(order, j.Tenant)
		}
		count[j.Tenant]++
	}
	ws.tenantOrder = order
	if len(order) <= 1 {
		return st
	}
	if ws.tenantMap == nil {
		ws.tenantMap = map[string]*tenantState{}
	}
	st.tenants = ws.tenantMap
	clear(st.tenants)
	ws.tenantBuf = resize(ws.tenantBuf, len(order))
	for i, name := range order {
		ws.tenantBuf[i] = tenantState{}
		st.tenants[name] = &ws.tenantBuf[i]
	}
	for _, t := range sys.Targets() {
		total := st.shared[t].free
		switch st.packing {
		case PackPartitioned:
			if total < len(order) {
				// Too few arrays to give every tenant one: fall back to the
				// shared pool on this layer so no tenant becomes unroutable.
				for _, name := range order {
					st.tenants[name].cap[t] = total
				}
				continue
			}
			base, extra := total/len(order), total%len(order)
			for i, name := range order {
				share := base
				if i < extra {
					share++
				}
				ts := st.tenants[name]
				start := len(st.arena)
				st.arena = st.shared[t].avail.takeLowestAppend(st.arena, share)
				st.shared[t].free -= share
				ts.region[t] = pool{avail: st.carve(start, head), free: share}
				ts.regional |= 1 << t
				ts.cap[t] = share
			}
		case PackWeightedFair:
			totalJobs := len(jobs)
			for _, name := range order {
				quota := total * count[name] / totalJobs
				if quota < 1 {
					quota = 1
				}
				st.tenants[name].cap[t] = quota
			}
		}
	}
	return st
}

// carve follows the spans the arena holds from start on with head spare
// spans, and returns them as a set whose in-place growth stays inside
// that room.
func (st *simState) carve(start, head int) ArraySet {
	end := len(st.arena)
	for i := 0; i < head; i++ {
		st.arena = append(st.arena, Span{})
	}
	return ArraySet{spans: st.arena[start : end : end+head]}
}

// poolFor returns the pool a tenant allocates from on target t.
func (st *simState) poolFor(t isa.Target, tenant string) *pool {
	if st.tenants != nil && st.packing == PackPartitioned {
		if ts := st.tenants[tenant]; ts != nil && ts.regional.Has(t) {
			return &ts.region[t]
		}
	}
	return &st.shared[t]
}

// freeFor returns the arrays the tenant could be granted on t right
// now — the tenant-aware replacement for the old shared free count.
func (st *simState) freeFor(t isa.Target, tenant string) int {
	if st.tenants == nil {
		return st.shared[t].free
	}
	ts := st.tenants[tenant]
	if ts == nil {
		return st.shared[t].free
	}
	switch st.packing {
	case PackPartitioned:
		if ts.regional.Has(t) {
			return ts.region[t].free
		}
		return st.shared[t].free
	case PackWeightedFair:
		if room := ts.cap[t] - ts.held[t]; room < st.shared[t].free {
			return room
		}
		return st.shared[t].free
	}
	return st.shared[t].free
}

// maxGrant returns the largest allocation the tenant can ever hold on
// t, even with the layer idle. Plans clamped to maxGrant cannot
// deadlock: once the tenant's in-flight work drains, freeFor reaches
// maxGrant again. On the shared-pool path the layer capacity clamp
// (clampAlloc) already bounds grants, so this returns "no extra limit".
func (st *simState) maxGrant(t isa.Target, tenant string) int {
	const unlimited = int(^uint(0) >> 1)
	if st.tenants == nil {
		return unlimited
	}
	if ts := st.tenants[tenant]; ts != nil && ts.cap[t] > 0 {
		return ts.cap[t]
	}
	return unlimited
}

// takeFrom removes the n lowest IDs from p, storing the taken spans in
// the sim's arena (capacity-clamped so later arena growth can't touch
// them).
func (st *simState) takeFrom(p *pool, n int) ArraySet {
	p.free -= n
	start := len(st.arena)
	st.arena = p.avail.takeLowestAppend(st.arena, n)
	return ArraySet{spans: st.arena[start:len(st.arena):len(st.arena)]}
}

// repSim is one standing replica's simulation state.
type repSim struct {
	stage  string
	arrays int
	set    ArraySet
	busy   bool
}

// placeReplica starts j on a free standing replica of its stage on
// target t, reporting whether one took it. poolGrant is the allocation
// the caller would otherwise place the job with right now: when the
// pool can grant it and the modelled pool time beats the replica, the
// job is left to regular placement — a knee-sized replica must never
// capture a job an idle pool would run faster. Replica durations come
// from the deterministic ReplicaTime model on both planning and
// execution paths, so estimates on replicas are exact by construction.
func (st *simState) placeReplica(j *Job, t isa.Target, poolGrant int) bool {
	if j.Stage == "" || len(st.reps[t]) == 0 {
		return false
	}
	if !j.Est.Has(t) {
		return false
	}
	rs := st.reps[t]
	for i := range rs {
		r := &rs[i]
		if r.busy || r.stage != j.Stage {
			continue
		}
		dur := st.sys.ReplicaTime(j.Est.p[t], t, r.arrays)
		if poolGrant > 0 && st.canPlace(t, poolGrant, j.Tenant) &&
			st.sys.ModelTime(j, t, poolGrant) < dur {
			return false
		}
		r.busy = true
		st.flying.push(flight{job: j, target: t, arrays: r.arrays, set: r.set,
			rep: i + 1, start: st.now, end: st.now + dur, estEnd: st.now + dur})
		return true
	}
	return false
}

// canPlace reports whether target t can accept the tenant's job with
// the given allocation right now.
func (st *simState) canPlace(t isa.Target, arrays int, tenant string) bool {
	return arrays > 0 && st.slots[t] > 0 && st.freeFor(t, tenant) >= arrays
}

// place starts a job on t with the given allocation, charging its
// simulated (true) execution time.
func (st *simState) place(j *Job, t isa.Target, arrays int) {
	if !st.canPlace(t, arrays, j.Tenant) {
		panic(fmt.Sprintf("sched: cannot place %v on %s with %d arrays", j, t, arrays))
	}
	dur := st.sys.ActualTime(j, t, arrays)
	if st.estMode {
		dur = st.sys.ModelTime(j, t, arrays)
	}
	p := st.poolFor(t, j.Tenant)
	set := st.takeFrom(p, arrays)
	if st.tenants != nil && st.packing == PackWeightedFair {
		if ts := st.tenants[j.Tenant]; ts != nil {
			ts.held[t] += arrays
		}
	}
	st.slots[t]--
	st.flying.push(flight{job: j, target: t, arrays: arrays, set: set, pool: p,
		start: st.now, end: st.now + dur, estEnd: st.now + st.sys.ModelTime(j, t, arrays)})
}

// advance pops the earliest completion, frees its resources, records the
// assignment, and returns true; false when nothing is in flight.
func (st *simState) advance() bool {
	if st.flying.Len() == 0 {
		return false
	}
	f := st.flying.pop()
	st.now = f.end
	if f.rep > 0 {
		st.reps[f.target][f.rep-1].busy = false
	} else {
		f.pool.put(f.set)
		if st.tenants != nil && st.packing == PackWeightedFair {
			if ts := st.tenants[f.job.Tenant]; ts != nil {
				ts.held[f.target] -= f.arrays
			}
		}
		st.slots[f.target]++
	}
	st.result.Assignments = append(st.result.Assignments, Assignment{
		Job: f.job, Target: f.target, Arrays: f.arrays, ArrayIDs: f.set,
		Tenant: f.job.Tenant, Start: f.start, End: f.end,
	})
	st.result.BusyTime[f.target] += f.end - f.start
	if f.end > st.result.Makespan {
		st.result.Makespan = f.end
	}
	return true
}

// earliestEnd returns the soonest completion time on layer t, or zero
// time and false when the layer is idle.
func (st *simState) earliestEnd(t isa.Target) (event.Time, bool) {
	best := event.Time(0)
	found := false
	for _, f := range st.flying {
		if f.target == t && (!found || f.end < best) {
			best = f.end
			found = true
		}
	}
	return best, found
}

// finish returns the sim's Result. A planning sim's Result stays in the
// workspace and is read before the next sim resets it. Any other Result
// goes to the caller, so its ArrayIDs are copied out of the workspace
// arena (and off the layers' replica sets) into one span slice of its
// own: a returned Result never aliases the workspace.
func (st *simState) finish() *Result {
	res := st.result
	if st.estMode {
		return res
	}
	n := 0
	for _, a := range res.Assignments {
		n += len(a.ArrayIDs.spans)
	}
	spans := make([]Span, 0, n)
	for i := range res.Assignments {
		ids := &res.Assignments[i].ArrayIDs
		start := len(spans)
		spans = append(spans, ids.spans...)
		ids.spans = spans[start:len(spans):len(spans)]
	}
	return res
}
