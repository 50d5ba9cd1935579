// Package workload builds the multiprogramming scenarios of Table II:
// combinations A-G of data-parallel applications, each compiled for all
// three in-memory ISAs and turned into scheduler jobs with
// statically-analysed (deterministic, hence exact) cost profiles.
package workload

import (
	"fmt"
	"math/rand"
	"strconv"

	"mlimp/internal/apps"
	"mlimp/internal/isa"
	memory "mlimp/internal/mem"
	"mlimp/internal/sched"
)

// Combos is the Table II application-combination matrix. Streamcluster
// appears with input sizes A and B; DB with the bitmap (B) and full-scan
// (S) algorithms.
var Combos = map[string][]string{
	"A": {"blackscholes", "fluidanimate", "streamclusterA", "crypto"},
	"B": {"streamclusterB", "backprop", "kmeans", "bitap"},
	"C": {"blackscholes", "fluidanimate", "dbS", "streamclusterA"},
	"D": {"streamclusterB", "backprop", "crypto", "dbB"},
	"E": {"blackscholes", "streamclusterA", "dbS", "bitap"},
	"F": {"streamclusterB", "kmeans", "crypto", "dbB"},
	"G": {"fluidanimate", "backprop", "kmeans", "bitap"},
}

// ComboNames returns the combination labels in order.
func ComboNames() []string { return []string{"A", "B", "C", "D", "E", "F", "G"} }

// elementBytes is the storage of one fixed-point element.
const elementBytes = 2

// profileFor statically analyses one app job for one target: the kernel
// is cross-compiled (internal/isa), and the per-invocation cycles are
// scaled by the loop count and by how many SIMD waves the job's elements
// need at the unit allocation.
func profileFor(a apps.App, t isa.Target) sched.Profile {
	prog, err := isa.Compile(a.Kernel, t)
	if err != nil {
		panic(fmt.Sprintf("workload: %s does not compile for %s: %v", a.Name, t, err))
	}
	cfg := memory.ConfigFor(t)
	nIn := int64(len(a.Kernel.Inputs()))
	nOut := int64(len(a.Kernel.Outputs()))
	// Unit allocation: arrays holding the operand vectors (inputs plus
	// outputs plus one scratch).
	workBytes := int64(a.Elements) * (nIn + nOut + 1) * elementBytes
	repUnit := int((workBytes + cfg.ArrayBytes() - 1) / cfg.ArrayBytes())
	if repUnit < 1 {
		repUnit = 1
	}
	lanes := int64(repUnit) * int64(cfg.ALUsPerArray)
	waves := (int64(a.Elements) + lanes - 1) / lanes
	return sched.Profile{
		UnitCycles: prog.Cycles * int64(a.LoopCount) * waves,
		RepUnit:    repUnit,
		LoadBytes:  sched.EffectiveLoadBytes(t, int64(a.Elements)*nIn*elementBytes),
		StoreBytes: sched.EffectiveLoadBytes(t, int64(a.Elements)*nOut*elementBytes),
		Beta:       sched.DefaultBeta,
	}
}

// appEstimates profiles one application on every target.
func appEstimates(a apps.App) *sched.Estimates {
	est := &sched.Estimates{}
	for _, t := range isa.Targets {
		est.Set(t, profileFor(a, t))
	}
	return est
}

// Jobs expands one application into its scheduler jobs (the app
// generates a fixed number of jobs with fixed loop counts, Section IV).
// App job costs are deterministic, so estimates are exact and TrueTime
// stays nil.
func Jobs(a apps.App, startID int) []*sched.Job {
	est := appEstimates(a)
	jobs := make([]*sched.Job, a.Jobs)
	for i := range jobs {
		jobs[i] = &sched.Job{
			ID:   startID + i,
			Name: fmt.Sprintf("%s-%d", a.Name, i),
			Kind: a.Name,
			Est:  est,
		}
	}
	return jobs
}

// ComboJobs builds the job batch for one Table II combination.
func ComboJobs(name string) []*sched.Job {
	appNames, ok := Combos[name]
	if !ok {
		panic(fmt.Sprintf("workload: unknown combination %q", name))
	}
	var jobs []*sched.Job
	for _, an := range appNames {
		a, ok := apps.ByName(an)
		if !ok {
			panic(fmt.Sprintf("workload: unknown app %q in combo %s", an, name))
		}
		jobs = append(jobs, Jobs(a, len(jobs))...)
	}
	return jobs
}

// RandomJobs draws n jobs uniformly from the Table II application suite
// — the synthetic open-stream workload the cluster serving studies feed
// the fleet. Deterministic for a seeded rng; profiles are shared across
// jobs of the same app (they are read-only to the scheduler).
func RandomJobs(rng *rand.Rand, n, startID int) []*sched.Job {
	suite := apps.Suite()
	ests := make([]*sched.Estimates, len(suite))
	for i, a := range suite {
		ests[i] = appEstimates(a)
	}
	jobs := make([]*sched.Job, n)
	for i := range jobs {
		k := rng.Intn(len(suite))
		jobs[i] = &sched.Job{
			ID:   startID + i,
			Name: fmt.Sprintf("%s-%d", suite[k].Name, startID+i),
			Kind: suite[k].Name,
			Est:  ests[k],
		}
	}
	return jobs
}

// AssignTenants tags jobs round-robin across n tenants named
// "t0".."t{n-1}", so a generated batch exercises the scheduler's
// multi-tenant array packing. A non-positive n leaves jobs untenanted
// (the single-pool fast path).
func AssignTenants(jobs []*sched.Job, n int) []*sched.Job {
	if n > 0 {
		for i, j := range jobs {
			j.Tenant = fmt.Sprintf("t%d", i%n)
		}
	}
	return jobs
}

// RequestPool caches the per-app cost profiles so single-request draws
// — the open-loop serving front end generates one job per request —
// don't recompile every kernel per request.
type RequestPool struct {
	suite []apps.App
	ests  []*sched.Estimates
}

// NewRequestPool analyses the Table II application suite once.
func NewRequestPool() *RequestPool {
	suite := apps.Suite()
	p := &RequestPool{suite: suite, ests: make([]*sched.Estimates, len(suite))}
	for i, a := range suite {
		p.ests[i] = appEstimates(a)
	}
	return p
}

// Draw builds one job for a uniformly drawn app. Deterministic for a
// seeded rng; the shared profiles are read-only to the scheduler.
func (p *RequestPool) Draw(rng *rand.Rand, id int) *sched.Job {
	j := &sched.Job{}
	p.DrawInto(rng, id, j)
	return j
}

// DrawInto is Draw into the caller's Job, for callers that build jobs
// in slabs. The job is named "<app>-<id>".
func (p *RequestPool) DrawInto(rng *rand.Rand, id int, j *sched.Job) {
	k := rng.Intn(len(p.suite))
	app := p.suite[k].Name
	var buf [32]byte
	name := strconv.AppendInt(append(append(buf[:0], app...), '-'), int64(id), 10)
	*j = sched.Job{ID: id, Name: string(name), Kind: app, Est: p.ests[k]}
}

// StandaloneTime returns the modelled kernel time of one app job on one
// memory layer given the whole layer (full capacity, the Figure 17
// setting). Working sets larger than the layer pay the scale-model
// penalty; the shared system provides the DDR path.
func StandaloneTime(sys *sched.System, a apps.App, t isa.Target) float64 {
	j := &sched.Job{ID: 0, Name: a.Name, Kind: a.Name, Est: &sched.Estimates{}}
	j.Est.Set(t, profileFor(a, t))
	return sys.ModelTime(j, t, sys.Layers[t].Capacity()).Seconds()
}

// PreferredTarget returns the memory with the lowest standalone kernel
// time for an app — the Figure 17 preference.
func PreferredTarget(sys *sched.System, a apps.App) isa.Target {
	best := isa.Targets[0]
	bestT := -1.0
	for _, t := range isa.Targets {
		if sys.Layers[t] == nil {
			continue
		}
		sec := StandaloneTime(sys, a, t)
		if bestT < 0 || sec < bestT {
			bestT, best = sec, t
		}
	}
	return best
}
