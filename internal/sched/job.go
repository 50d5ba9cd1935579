// Package sched implements the MLIMP job scheduler (Section III-C): the
// analytical execution-time model with variable memory allocation, the
// knee-based allocation sizing, the Longest-Job-First baseline, the
// adaptive scheduler with inter-queue adjustment (Algorithm 1), and the
// global scheduler with intra-queue adjustment (Algorithm 2). Scheduling
// here is an instance of the NP-hard resource-constrained project
// scheduling problem, so everything below is a heuristic, exactly as in
// the paper.
package sched

import (
	"fmt"
	"math"

	"mlimp/internal/event"
	"mlimp/internal/isa"
	"mlimp/internal/mainmem"
	"mlimp/internal/mem"
)

// Profile is the scheduler's belief about one job on one memory: the
// unit-allocation compute cycles (from the performance predictor or
// static analysis), the working-set size in arrays, the data movement,
// and the scale-free shape parameter.
type Profile struct {
	UnitCycles   int64 // t_cmpt(x, a_repunit) in device cycles
	RepUnit      int   // a_repunit in arrays (>= 1)
	LoadBytes    int64
	StoreBytes   int64
	ProgramBytes int64   // ReRAM weight-programming traffic
	Beta         float64 // scale-free exponent, 0 < beta <= 1
	// Overhead is the allocation-independent host cost per invocation
	// (scheduling, predictor, launch — "<2% of SpMM kernel", Sec. V-B2).
	Overhead event.Time
	// MaxUseful caps the allocation beyond which the power law stops
	// applying (e.g. one SpMM replica per input row exhausts the
	// input-row parallelism). Zero means no cap.
	MaxUseful int
}

// ScaleToBits rescales the profile for bits-wide operands. The devices
// compute bit-serially and move data byte-serially, so compute cycles
// and every byte stream scale linearly with the operand width, and the
// stationary working set shrinks the same way (RepUnit scales by ceil —
// a narrower layer needs fewer arrays per replica, freeing capacity for
// replication to consume). Widths at or above the 16-bit default return
// the profile unchanged.
func (p Profile) ScaleToBits(bits int) Profile {
	if bits <= 0 || bits >= 16 {
		return p
	}
	scale := func(v int64) int64 {
		if v <= 0 {
			return v
		}
		return (v*int64(bits) + 15) / 16
	}
	p.UnitCycles = scale(p.UnitCycles)
	p.LoadBytes = scale(p.LoadBytes)
	p.StoreBytes = scale(p.StoreBytes)
	p.ProgramBytes = scale(p.ProgramBytes)
	if p.RepUnit > 1 {
		p.RepUnit = (p.RepUnit*bits + 15) / 16
	}
	return p
}

// DefaultBeta is the empirical shape parameter: parallelisation costs
// make speedup sublinear ("setting the shape parameter beta less than
// 1", Section III-C3).
const DefaultBeta = 0.8

// programWriteSlowdown derates the DDR streaming model for ReRAM cell
// programming, whose write latency/energy far exceeds reads (Sec. II-A).
const programWriteSlowdown = 4

// inPlaceDiscount is the load/store advantage of in-DRAM computing: the
// operands already live in main memory, so "loading" is a RowClone copy
// into the compute rows rather than a DDR-pin transfer. In-bank copies
// move a full row per activation pair, roughly 16x the pin bandwidth
// across banks.
const inPlaceDiscount = 16

// EffectiveLoadBytes returns the DDR-equivalent traffic of moving bytes
// into an in-memory compute region of target t. In-SRAM and in-ReRAM
// computing stream over the memory channel; in-DRAM computing copies in
// place.
func EffectiveLoadBytes(t isa.Target, bytes int64) int64 {
	if t == isa.DRAM {
		return bytes / inPlaceDiscount
	}
	return bytes
}

// Job is one schedulable MLIMP job. Est drives scheduling decisions;
// TrueTime (if set) drives the simulation, letting experiments separate
// predictor error from scheduler quality. A nil TrueTime means the
// estimates are exact (the deterministic data-parallel case).
type Job struct {
	ID   int
	Name string
	// Kind tags the kernel family ("spmm", "gemm", "vadd", or an app
	// name) for the execution-time breakdowns of Figures 12/13.
	Kind string
	// Tenant names the workload owner for multi-tenant packing. Jobs of
	// different tenants are placed on disjoint array sets (see
	// packing.go); the empty string is the single-tenant default.
	Tenant string
	// Stage tags the pipeline stage this job is one invocation of
	// (e.g. "spmm-l0"). Jobs sharing a stage share a stationary working
	// set, so they may be fanned across standing replicas of that stage
	// (replicate.go). Empty means the job is not replicable.
	Stage string
	// Bits is the operand width the job computes at; zero means the full
	// 16-bit default. The job generators pre-scale Est with
	// Profile.ScaleToBits; Bits rides along for the energy model.
	Bits int
	Est  map[isa.Target]Profile
	// TrueTime returns the actual execution time of the job on target t
	// with an allocation of arrays arrays.
	TrueTime func(sys *System, t isa.Target, arrays int) event.Time
}

// String identifies the job.
func (j *Job) String() string { return fmt.Sprintf("job%d(%s)", j.ID, j.Name) }

// System is the set of memory layers available to the scheduler plus the
// shared DDR4 path for loads and stores. It memoizes the analytical
// cost model (see costcache.go); like the DDR controller it wraps, a
// System is not safe for concurrent use.
type System struct {
	Layers map[isa.Target]*Layer
	DDR    *mainmem.Controller

	// Packing selects the multi-tenant array packing policy applied by
	// the placement simulation (packing.go). The zero value, PackFirstFit,
	// reproduces the single-pool behaviour exactly.
	Packing Packing

	// Replication selects whether the schedulers may pin standing
	// replicas of bottleneck stages onto idle arrays (replicate.go). The
	// zero value, ReplicateOff, reproduces the replica-free behaviour
	// exactly.
	Replication ReplicationPolicy

	profMemo   map[uint64]profEntry
	kneeMemo   map[kneeKey]int
	cacheStats CacheStats
	targets    []isa.Target // memoised Targets(); Layers is fixed after construction
	// kneeGrids caches each layer's knee-search grid for the capacity
	// it was last built for.
	kneeGrids [isa.NumTargets]kneeGrid
}

// Layer is one computable memory exposed to the scheduler. Capacity is
// array-granular: the layer owns physical array IDs [0, universe), of
// which avail are currently in service; decommissioned sets live on a
// LIFO stack so Restore returns exactly the IDs Degrade removed.
type Layer struct {
	Cfg   mem.Config
	Slots int // outstanding-job limit

	universe int        // physical IDs [0, universe) this layer owns
	avail    ArraySet   // arrays currently in service
	sig      uint64     // memo signature of avail + replicas (costcache.go)
	lost     []ArraySet // decommissioned sets, most recent last

	replicas []Replica // standing stage replicas pinned out of avail
	repWant  *repSpec  // replica config a Degrade tore down (replicate.go)
}

// NewLayer builds a layer owning array IDs [0, arrays).
func NewLayer(cfg mem.Config, arrays, slots int) *Layer {
	l := &Layer{Cfg: cfg, Slots: slots}
	l.SetCapacity(arrays)
	return l
}

// Capacity returns the number of arrays currently in service.
func (l *Layer) Capacity() int { return l.avail.Count() }

// SetCapacity resizes the layer to own array IDs [0, n) with every
// array in service, discarding any degradation history — the
// cluster-scaling and test hook, not the fault path (see degrade.go).
func (l *Layer) SetCapacity(n int) {
	if n < 0 {
		n = 0
	}
	l.universe = n
	l.avail = NewRange(0, n)
	l.lost = nil
	l.replicas = nil
	l.repWant = nil
	l.sig = l.avail.Signature()
}

// Avail returns a copy of the in-service array set.
func (l *Layer) Avail() ArraySet { return l.avail.Clone() }

// NewSystem builds a system from the given Table III configurations,
// allocating every array of each device to in-memory compute except the
// SRAM half reserved for the conventional cache (Section V-A).
func NewSystem(targets ...isa.Target) *System {
	s := &System{Layers: map[isa.Target]*Layer{}, DDR: mainmem.NewController(mainmem.DDR4_2400())}
	for _, t := range targets {
		cfg := mem.ConfigFor(t)
		capacity := cfg.NumArrays
		if t == isa.SRAM {
			capacity /= 2 // half the LLC stays a general cache
		}
		s.Layers[t] = NewLayer(cfg, capacity, cfg.MaxJobs)
	}
	return s
}

// Targets returns the system's layers in canonical order. The result
// is memoised (the layer set never changes after construction) and
// shared across calls — callers must treat it as read-only.
func (s *System) Targets() []isa.Target {
	if s.targets == nil {
		for _, t := range isa.Targets {
			if _, ok := s.Layers[t]; ok {
				s.targets = append(s.targets, t)
			}
		}
	}
	return s.targets
}

// ModelTime evaluates the analytical model t(x,m) of Equations 1-3 for
// an allocation of m arrays on target t:
//
//	t(x,m)      = n_iter * (t_ld + t_cmpt)            (Eq. 1)
//	t_ld(x,m)   = t_ld(x) + t_replica(m / a_repunit)  (Eq. 2)
//	t_cmpt(x,m) = t_cmpt(x, a_repunit) * (a_repunit/m)^beta  (Eq. 3)
//
// The iteration count and per-iteration terms are folded together: the
// total load streams LoadBytes once regardless of n_iter, the power law
// covers both shrinking (m < a_repunit) and replicating (m > a_repunit)
// allocations, and replica copies are in-memory row moves parallel
// across arrays.
func (s *System) ModelTime(j *Job, t isa.Target, arrays int) event.Time {
	p, ok := j.Est[t]
	if !ok {
		return math.MaxInt64 // job cannot run on this layer
	}
	return s.profileTime(p, t, arrays)
}

// profileTime evaluates the model through the System's memo (the hot
// entry point for ModelTime, KneeAlloc and the schedulers).
func (s *System) profileTime(p Profile, t isa.Target, arrays int) event.Time {
	if arrays <= 0 {
		panic("sched: non-positive allocation")
	}
	return s.memoProfileTime(p, t, arrays)
}

// profileParts evaluates the allocation-dependent pieces of Equations
// 1-3: the load/overhead term t_ld and the compute scale factor
// (a_repunit/m)^beta, such that t(x,m) = ld + clock.Cycles(UnitCycles)*scale.
// Factored out so the model can be run forward (computeProfileTime) and
// inverted (ObservedUnitCycles) from one definition.
func (s *System) profileParts(p Profile, t isa.Target, arrays int) (ld event.Time, scale float64, clock event.Clock) {
	l := s.Layers[t]
	clock = l.Cfg.Clock()

	beta := p.Beta
	if beta == 0 {
		beta = DefaultBeta
	}
	repUnit := p.RepUnit
	if repUnit < 1 {
		repUnit = 1
	}
	effArrays := arrays
	if p.MaxUseful > 0 && effArrays > p.MaxUseful {
		effArrays = p.MaxUseful
	}
	scale = math.Pow(float64(repUnit)/float64(effArrays), beta)

	ld = p.Overhead + s.DDR.StreamTime(p.LoadBytes) + s.DDR.StreamTime(p.StoreBytes)
	if p.ProgramBytes > 0 {
		ld += s.DDR.StreamTime(p.ProgramBytes) * programWriteSlowdown
	}
	if replicas := effArrays / repUnit; replicas > 1 {
		// Replication doubles the copy fan-out each round (1->2->4->...),
		// each round moving one working set row-parallel across arrays.
		rounds := int64(0)
		for v := replicas - 1; v > 0; v >>= 1 {
			rounds++
		}
		ld += clock.Cycles(rounds * int64(l.Cfg.ArrayRows))
	}
	return ld, scale, clock
}

// computeProfileTime evaluates Equations 1-3 from scratch — pure in
// (p, t, arrays) given the layer's immutable configuration.
func (s *System) computeProfileTime(p Profile, t isa.Target, arrays int) event.Time {
	ld, scale, clock := s.profileParts(p, t, arrays)
	return ld + event.Time(float64(clock.Cycles(p.UnitCycles))*scale)
}

// ObservedUnitCycles inverts the cost model: given the observed span of
// a job that executed on target t with the given allocation under
// profile p, it returns the unit-allocation compute cycle count the
// model would have needed to predict that span exactly. The serving
// front end feeds these implied cycles back into the online predictor
// as training observations. Spans at or below the load/overhead term
// imply no measurable compute and floor at one cycle.
func (s *System) ObservedUnitCycles(p Profile, t isa.Target, arrays int, span event.Time) int64 {
	ld, scale, clock := s.profileParts(p, t, arrays)
	cmpt := span - ld
	if cmpt <= 0 || scale <= 0 {
		return 1
	}
	c := clock.CyclesAt(event.Time(float64(cmpt) / scale))
	if c < 1 {
		c = 1
	}
	return c
}

// ActualTime returns the simulated execution time: TrueTime when the job
// carries ground truth, otherwise the model applied to its estimates.
func (s *System) ActualTime(j *Job, t isa.Target, arrays int) event.Time {
	if j.TrueTime != nil {
		return j.TrueTime(s, t, arrays)
	}
	return s.ModelTime(j, t, arrays)
}

// BestTarget returns the layer with the smallest modelled time at the
// knee allocation, together with that time.
func (s *System) BestTarget(j *Job) (isa.Target, event.Time) {
	best := isa.Target(0)
	bestT := event.Time(math.MaxInt64)
	for _, t := range s.Targets() {
		if _, ok := j.Est[t]; !ok {
			continue
		}
		m := s.KneeAlloc(j, t)
		if tt := s.ModelTime(j, t, m); tt < bestT {
			bestT = tt
			best = t
		}
	}
	return best, bestT
}

// kneeGridPoints is the sampling resolution of the execution-time curve.
const kneeGridPoints = 48

// KneeAlloc returns the allocation size at the knee of the execution
// time curve t(x,m): the paper picks the m that maximises the angular
// speed of the tangent to the (normalised) curve, which avoids the
// overprovisioning that plain argmin produces once the curve flattens.
// The knee is memoized per (profile, target, free-set signature) — the
// grid search below samples the model at kneeGridPoints allocations,
// and every job of one app shares the same knee.
func (s *System) KneeAlloc(j *Job, t isa.Target) int {
	p, ok := j.Est[t]
	if !ok {
		return 1
	}
	return s.kneeForProfile(p, t)
}

// kneeForProfile is KneeAlloc on a bare profile — shared with the
// replica planner, which sizes replicas for a stage profile without a
// job in hand.
func (s *System) kneeForProfile(p Profile, t isa.Target) int {
	l := s.Layers[t]
	maxM := l.Capacity()
	if maxM < 1 {
		return 1
	}
	if knee, ok := s.memoKneeAlloc(p, t, l.sig); ok {
		return knee
	}
	knee := s.kneeSearch(p, t, maxM)
	s.storeKneeAlloc(p, t, l.sig, knee)
	return knee
}

// kneeGrid is the geometric grid over [1, maxM] the knee search
// samples; it depends only on maxM, so each layer keeps the last one.
type kneeGrid struct {
	maxM int
	ms   []int
}

// kneeGrid returns the geometric grid over [1, maxM] for layer t,
// rebuilding the layer's cached grid when its capacity has changed.
func (s *System) kneeGrid(t isa.Target, maxM int) []int {
	g := &s.kneeGrids[t]
	if g.maxM == maxM {
		return g.ms
	}
	ms := g.ms[:0]
	if ms == nil {
		ms = make([]int, 0, kneeGridPoints)
	}
	prev := 0
	for i := 0; i < kneeGridPoints; i++ {
		m := int(math.Round(math.Pow(float64(maxM), float64(i)/(kneeGridPoints-1))))
		if m <= prev {
			m = prev + 1
		}
		if m > maxM {
			break
		}
		ms = append(ms, m)
		prev = m
	}
	g.maxM, g.ms = maxM, ms
	return ms
}

// kneeSearch runs the grid search for the knee of t(x,m) on [1, maxM].
// It evaluates the model directly rather than through the model memo:
// grid points are one-off allocations, and the search result is
// memoized in the knee memo.
func (s *System) kneeSearch(p Profile, t isa.Target, maxM int) int {
	ms := s.kneeGrid(t, maxM)
	if len(ms) < 3 {
		return maxM
	}
	var buf [kneeGridPoints]float64
	ts := buf[:len(ms)]
	for i, m := range ms {
		ts[i] = float64(s.computeProfileTime(p, t, m))
	}
	// Normalise both axes to [0,1].
	tMin, tMax := ts[0], ts[0]
	for _, v := range ts {
		tMin = math.Min(tMin, v)
		tMax = math.Max(tMax, v)
	}
	if tMax == tMin {
		return ms[0] // flat curve: smallest allocation suffices
	}
	// Knee = the point of the normalised curve farthest below the chord
	// between its endpoints — where the tangent angle changes fastest
	// overall, i.e. the transition from "more memory buys real speedup"
	// to "the curve has flattened".
	mLo, mHi := float64(ms[0]), float64(ms[len(ms)-1])
	n0 := func(m float64) float64 { return (m - mLo) / (mHi - mLo) }
	bestIdx, bestDist := 0, math.Inf(-1)
	for i := range ms {
		mN := n0(float64(ms[i]))
		tN := (ts[i] - tMin) / (tMax - tMin)
		chord := ts[0] + (ts[len(ts)-1]-ts[0])*mN // normalised chord value
		chordN := (chord - tMin) / (tMax - tMin)
		if d := chordN - tN; d > bestDist {
			bestDist = d
			bestIdx = i
		}
	}
	return ms[bestIdx]
}
