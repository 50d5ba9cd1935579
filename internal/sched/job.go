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
	"math/bits"

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

// TargetMask is a set of targets: bit t is set when target t is in the
// set.
type TargetMask uint8

// Has reports whether t is in the set.
func (m TargetMask) Has(t isa.Target) bool { return m&(1<<t) != 0 }

// Estimates is a job's per-target profile table: one slot per target,
// indexed by isa.Target, plus a mask of the slots that are set. A job
// runs only on the targets it has a profile for. Each slot also keeps
// its profile's hash, so the cost-model memo does not rehash a profile
// per lookup. Unset slots stay zero, so == on two tables compares their
// content (tables differing only in the sign of a zero Beta compare
// unequal). The read methods accept a nil table, which has no
// profiles.
type Estimates struct {
	mask TargetMask
	p    [isa.NumTargets]Profile
	ph   [isa.NumTargets]uint64 // p[t].hash(0)
}

// Set records the profile for target t.
func (e *Estimates) Set(t isa.Target, p Profile) {
	e.p[t] = p
	e.ph[t] = p.hash(0)
	e.mask |= 1 << t
}

// Get returns the profile for target t and whether it is set; an unset
// target yields the zero Profile.
func (e *Estimates) Get(t isa.Target) (Profile, bool) {
	if !e.Has(t) {
		return Profile{}, false
	}
	return e.p[t], true
}

// Has reports whether there is a profile for target t.
func (e *Estimates) Has(t isa.Target) bool { return e != nil && e.mask.Has(t) }

// Mask returns the set of targets with a profile.
func (e *Estimates) Mask() TargetMask {
	if e == nil {
		return 0
	}
	return e.mask
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
	// Est is read-only to the scheduler, so jobs of one shape may share
	// one table.
	Est *Estimates
	// TrueTime returns the actual execution time of the job on target t
	// with an allocation of arrays arrays.
	TrueTime func(sys *System, t isa.Target, arrays int) event.Time
}

// String identifies the job.
func (j *Job) String() string { return fmt.Sprintf("job%d(%s)", j.ID, j.Name) }

// System is the set of memory layers available to the scheduler plus the
// shared DDR4 path for loads and stores. It memoizes the analytical
// cost model (see costcache.go) and keeps one scheduling workspace
// (sim.go), so a System is not safe for concurrent use.
type System struct {
	// Layers holds one layer per target, indexed by isa.Target; nil
	// means the system has no such layer.
	Layers [isa.NumTargets]*Layer
	DDR    mainmem.Config

	// Packing selects the multi-tenant array packing policy applied by
	// the placement simulation (packing.go). The zero value, PackFirstFit,
	// reproduces the single-pool behaviour exactly.
	Packing Packing

	// Replication selects whether the schedulers may pin standing
	// replicas of bottleneck stages onto idle arrays (replicate.go). The
	// zero value, ReplicateOff, reproduces the replica-free behaviour
	// exactly.
	Replication ReplicationPolicy

	profMemo   profTable
	kneeMemo   profTable
	scales     []*scaleRow // knee-search scale table, most recently used first
	cacheStats CacheStats
	targets    []isa.Target // memoised Targets(); the layer set is fixed after construction
	// kneeGrids caches each layer's knee-search grid for the capacity
	// it was last built for.
	kneeGrids [isa.NumTargets]kneeGrid
	// ws is the scratch memory Schedule calls reset and reuse (sim.go).
	ws workspace
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

// Capacity returns the number of arrays currently in service. A nil
// layer (a target the System lacks) has none.
func (l *Layer) Capacity() int {
	if l == nil {
		return 0
	}
	return l.avail.Count()
}

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
	s := &System{DDR: mainmem.DDR4_2400()}
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
			if s.Layers[t] != nil {
				s.targets = append(s.targets, t)
			}
		}
	}
	return s.targets
}

// Mask returns the set of targets the system has a layer for.
func (s *System) Mask() TargetMask {
	var m TargetMask
	for t, l := range s.Layers {
		if l != nil {
			m |= 1 << t
		}
	}
	return m
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
	if !j.Est.Has(t) {
		return math.MaxInt64 // job cannot run on this layer
	}
	if arrays <= 0 {
		panic("sched: non-positive allocation")
	}
	return s.memoProfileTime(&j.Est.p[t], j.Est.ph[t], t, arrays)
}

// modelTerms is the allocation-independent part of Equations 1-3 for
// one (profile, target): every term of t(x,m) except the compute scale
// (a_repunit/m)^beta and the replication copy rounds. The model is run
// forward (computeProfileTime, ReplicaTime, the knee search) and
// inverted (ObservedUnitCycles) from this one definition.
type modelTerms struct {
	fixed     event.Time // Overhead + store stream: paid even on a standing replica
	stream    event.Time // load stream + derated ReRAM programming stream
	cycles    float64    // clock.Cycles(UnitCycles): compute time at a_repunit
	beta      float64    // Beta, DefaultBeta when unset
	repUnit   int        // RepUnit, at least 1
	maxUseful int        // MaxUseful; 0 = no cap
	rowCycles event.Time // clock.Cycles(ArrayRows): one replication copy round
	clock     event.Clock
}

// init sets mt to the allocation-independent model terms of p on
// layer t of s.
func (mt *modelTerms) init(s *System, p *Profile, t isa.Target) {
	cfg := &s.Layers[t].Cfg
	mt.clock = cfg.Clock()
	mt.fixed = p.Overhead + s.DDR.StreamTime(p.StoreBytes)
	mt.stream = s.DDR.StreamTime(p.LoadBytes)
	if p.ProgramBytes > 0 {
		mt.stream += s.DDR.StreamTime(p.ProgramBytes) * programWriteSlowdown
	}
	mt.cycles = float64(mt.clock.Cycles(p.UnitCycles))
	mt.beta = p.Beta
	if mt.beta == 0 {
		mt.beta = DefaultBeta
	}
	mt.repUnit = max(p.RepUnit, 1)
	mt.maxUseful = p.MaxUseful
	mt.rowCycles = mt.clock.Cycles(int64(cfg.ArrayRows))
}

// eff caps an allocation at MaxUseful, past which the power law stops
// applying.
func (mt *modelTerms) eff(arrays int) int {
	if mt.maxUseful > 0 && arrays > mt.maxUseful {
		return mt.maxUseful
	}
	return arrays
}

// scale is the compute scale factor (a_repunit/m)^beta at effective
// allocation eff.
func (mt *modelTerms) scale(eff int) float64 {
	return math.Pow(float64(mt.repUnit)/float64(eff), mt.beta)
}

// ld is the load/overhead term t_ld at effective allocation eff:
// replication doubles the copy fan-out each round (1->2->4->...), each
// round moving one working set row-parallel across arrays.
func (mt *modelTerms) ld(eff int) event.Time {
	ld := mt.fixed + mt.stream
	if replicas := eff / mt.repUnit; replicas > 1 {
		ld += event.Time(bits.Len(uint(replicas-1))) * mt.rowCycles
	}
	return ld
}

// at evaluates t(x,m) = t_ld + clock.Cycles(UnitCycles)*scale at
// effective allocation eff, given scale = mt.scale(eff).
func (mt *modelTerms) at(eff int, scale float64) event.Time {
	return mt.ld(eff) + event.Time(mt.cycles*scale)
}

// computeProfileTime evaluates Equations 1-3 from scratch — pure in
// (p, t, arrays) given the layer's immutable configuration.
func (s *System) computeProfileTime(p *Profile, t isa.Target, arrays int) event.Time {
	var mt modelTerms
	mt.init(s, p, t)
	eff := mt.eff(arrays)
	return mt.at(eff, mt.scale(eff))
}

// ObservedUnitCycles inverts the cost model: given the observed span of
// a job that executed on target t with the given allocation under
// profile p, it returns the unit-allocation compute cycle count the
// model would have needed to predict that span exactly. The serving
// front end feeds these implied cycles back into the online predictor
// as training observations. Spans at or below the load/overhead term
// imply no measurable compute and floor at one cycle.
func (s *System) ObservedUnitCycles(p Profile, t isa.Target, arrays int, span event.Time) int64 {
	var mt modelTerms
	mt.init(s, &p, t)
	eff := mt.eff(arrays)
	scale := mt.scale(eff)
	cmpt := span - mt.ld(eff)
	if cmpt <= 0 || scale <= 0 {
		return 1
	}
	c := mt.clock.CyclesAt(event.Time(float64(cmpt) / scale))
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
		if !j.Est.Has(t) {
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
	if !j.Est.Has(t) {
		return 1
	}
	return s.kneeForProfile(&j.Est.p[t], j.Est.ph[t], t)
}

// kneeForProfile is KneeAlloc on a bare profile with hash ph =
// p.hash(0) — shared with the replica planner, which sizes replicas for
// a stage profile without a job in hand.
func (s *System) kneeForProfile(p *Profile, ph uint64, t isa.Target) int {
	l := s.Layers[t]
	maxM := l.Capacity()
	if maxM < 1 {
		return 1
	}
	return s.memoKneeAlloc(p, ph, t, l.sig, maxM)
}

// kneeGrid is the geometric grid over [1, maxM] the knee search
// samples, with each point's position normalised to [0,1]; it depends
// only on maxM, so each layer keeps the last one.
type kneeGrid struct {
	maxM int
	ms   []int
	mN   []float64 // (ms[i]-ms[0]) / (ms[len-1]-ms[0])
}

// kneeGrid returns the knee grid over [1, maxM] for layer t, rebuilding
// the layer's cached grid when its capacity has changed.
func (s *System) kneeGrid(t isa.Target, maxM int) *kneeGrid {
	g := &s.kneeGrids[t]
	if g.maxM == maxM {
		return g
	}
	ms := g.ms[:0]
	if ms == nil {
		ms = make([]int, 0, kneeGridPoints)
		g.mN = make([]float64, 0, kneeGridPoints)
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
	mN := g.mN[:0]
	mLo, mHi := float64(ms[0]), float64(ms[len(ms)-1])
	for _, m := range ms {
		mN = append(mN, (float64(m)-mLo)/(mHi-mLo))
	}
	g.maxM, g.ms, g.mN = maxM, ms, mN
	return g
}

// kneeSearch runs the grid search for the knee of t(x,m) on [1, maxM].
// The search result is memoized in the knee memo, so the search itself
// bypasses the model memo (see costcache.go).
func (s *System) kneeSearch(p *Profile, t isa.Target, maxM int) int {
	g := s.kneeGrid(t, maxM)
	if len(g.ms) < 3 {
		return maxM
	}
	var buf [kneeGridPoints]float64
	ts := buf[:len(g.ms)]
	s.kneeCurve(p, t, maxM, g.ms, ts)
	return g.knee(ts)
}

// kneeCurve fills ts[i] with t(x, ms[i]) over the knee grid ms of a
// layer of capacity maxM. The allocation-independent terms are built
// once; the compute scales of the grid points below MaxUseful come from
// the scale table, and every point past MaxUseful evaluates at
// MaxUseful, so they share one value.
func (s *System) kneeCurve(p *Profile, t isa.Target, maxM int, ms []int, ts []float64) {
	var mt modelTerms
	mt.init(s, p, t)
	n := len(ms)
	if mt.maxUseful > 0 {
		n = 0
		for n < len(ms) && ms[n] <= mt.maxUseful {
			n++
		}
	}
	for i, scale := range s.kneeScales(&mt, t, maxM, ms[:n]) {
		ts[i] = float64(mt.at(ms[i], scale))
	}
	if n < len(ms) {
		capped := float64(mt.at(mt.maxUseful, mt.scale(mt.maxUseful)))
		for i := n; i < len(ms); i++ {
			ts[i] = capped
		}
	}
}

// knee returns the knee of the curve ts sampled over the grid. The
// samples are whole times, never NaN or -0, so plain comparisons find
// the same extremes as math.Min and math.Max.
func (g *kneeGrid) knee(ts []float64) int {
	// Normalise both axes to [0,1].
	tMin, tMax := ts[0], ts[0]
	for _, v := range ts {
		if v < tMin {
			tMin = v
		}
		if v > tMax {
			tMax = v
		}
	}
	if tMax == tMin {
		return g.ms[0] // flat curve: smallest allocation suffices
	}
	// Knee = the point of the normalised curve farthest below the chord
	// between its endpoints — where the tangent angle changes fastest
	// overall, i.e. the transition from "more memory buys real speedup"
	// to "the curve has flattened".
	bestIdx, bestDist := 0, math.Inf(-1)
	for i, mN := range g.mN {
		tN := (ts[i] - tMin) / (tMax - tMin)
		chord := ts[0] + (ts[len(ts)-1]-ts[0])*mN // normalised chord value
		chordN := (chord - tMin) / (tMax - tMin)
		if d := chordN - tN; d > bestDist {
			bestDist = d
			bestIdx = i
		}
	}
	return g.ms[bestIdx]
}
