package sched

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mlimp/internal/event"
	"mlimp/internal/isa"
)

// Chaos testing: schedulers must complete every schedulable batch —
// never deadlock, never drop or duplicate a job, never allocate more
// than a layer's capacity at any instant — across randomly degraded
// systems (shrunken capacities, reduced slots, layers missing from
// jobs' estimate maps, adversarial true/estimate divergence).

// chaosSystem builds a system with randomly degraded layers.
func chaosSystem(rng *rand.Rand) *System {
	targets := []isa.Target{}
	for _, t := range isa.Targets {
		if rng.Intn(4) > 0 { // each layer present w.p. 3/4
			targets = append(targets, t)
		}
	}
	if len(targets) == 0 {
		targets = []isa.Target{isa.SRAM}
	}
	sys := NewSystem(targets...)
	for _, t := range sys.Targets() {
		l := sys.Layers[t]
		l.SetCapacity(1 + rng.Intn(l.Capacity()))
		l.Slots = 1 + rng.Intn(8)
	}
	return sys
}

// chaosJobs builds jobs with partial per-layer support and wildly
// divergent estimates.
func chaosJobs(rng *rand.Rand, sys *System, n int) []*Job {
	targets := sys.Targets()
	jobs := make([]*Job, n)
	for i := range jobs {
		var est Estimates
		// Every job supports a random non-empty subset of the layers.
		perm := rng.Perm(len(targets))
		k := 1 + rng.Intn(len(targets))
		var trueEst Estimates
		for _, idx := range perm[:k] {
			t := targets[idx]
			p := Profile{
				UnitCycles: 1 + rng.Int63n(1e8),
				RepUnit:    1 + rng.Intn(sys.Layers[t].Capacity()),
				LoadBytes:  rng.Int63n(1 << 22),
				Beta:       0.3 + rng.Float64()*0.7,
			}
			if rng.Intn(3) == 0 {
				p.MaxUseful = p.RepUnit * (1 + rng.Intn(8))
			}
			trueEst.Set(t, p)
			q := p
			q.UnitCycles = int64(float64(p.UnitCycles) * math.Exp(rng.NormFloat64()))
			if q.UnitCycles < 1 {
				q.UnitCycles = 1
			}
			est.Set(t, q)
		}
		j := &Job{ID: i, Name: "chaos", Est: &est}
		j.TrueTime = func(s *System, t isa.Target, arrays int) event.Time {
			p, ok := trueEst.Get(t)
			if !ok {
				// Scheduled onto a layer the truth does not know: treat
				// the estimate as the truth rather than dying.
				p, _ = est.Get(t)
			}
			exact := &Job{ID: -1, Est: &Estimates{}}
			exact.Est.Set(t, p)
			return s.ModelTime(exact, t, arrays)
		}
		jobs[i] = j
	}
	return jobs
}

// verifyNoOverlapOvercommit replays the assignments and checks that at
// no instant does a layer exceed its capacity or slot count.
func verifyNoOverlapOvercommit(t *testing.T, sys *System, res *Result) {
	t.Helper()
	type ev struct {
		at     event.Time
		arrays int
		slots  int
	}
	perLayer := map[isa.Target][]ev{}
	for _, a := range res.Assignments {
		perLayer[a.Target] = append(perLayer[a.Target],
			ev{a.Start, a.Arrays, 1}, ev{a.End, -a.Arrays, -1})
	}
	for tgt, evs := range perLayer {
		l := sys.Layers[tgt]
		// Sweep in time order; at equal times process releases first.
		for i := 1; i < len(evs); i++ {
			for k := i; k > 0; k-- {
				if evs[k].at < evs[k-1].at ||
					(evs[k].at == evs[k-1].at && evs[k].arrays < evs[k-1].arrays) {
					evs[k], evs[k-1] = evs[k-1], evs[k]
				} else {
					break
				}
			}
		}
		arrays, slots := 0, 0
		for _, e := range evs {
			arrays += e.arrays
			slots += e.slots
			if arrays > l.Capacity() {
				t.Fatalf("%s: %d arrays in use, capacity %d", tgt, arrays, l.Capacity())
			}
			if slots > l.Slots {
				t.Fatalf("%s: %d slots in use, limit %d", tgt, slots, l.Slots)
			}
		}
	}
}

func TestChaosAllSchedulersProperty(t *testing.T) {
	scheds := []Scheduler{LJF{}, NewAdaptive(), NewGlobal()}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sys := chaosSystem(rng)
		// Jobs must be able to run somewhere in this system: restrict
		// their Est subsets to present layers (chaosJobs does).
		jobs := chaosJobs(rng, sys, 1+rng.Intn(40))
		for _, sc := range scheds {
			res := sc.Schedule(sys, jobs)
			if len(res.Assignments) != len(jobs) {
				t.Logf("seed %d: %s completed %d of %d", seed, sc.Name(), len(res.Assignments), len(jobs))
				return false
			}
			seen := map[int]bool{}
			for _, a := range res.Assignments {
				if seen[a.Job.ID] || a.Arrays <= 0 || a.End < a.Start {
					return false
				}
				seen[a.Job.ID] = true
				if sys.Layers[a.Target] == nil {
					return false
				}
			}
			verifyNoOverlapOvercommit(t, sys, res)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestChaosStrictLJFCompletes(t *testing.T) {
	// Strict LJF waits for each job's best memory; even so it must
	// finish every batch on degraded systems where that memory exists.
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		sys := chaosSystem(rng)
		jobs := chaosJobs(rng, sys, 1+rng.Intn(30))
		res := LJF{Strict: true}.Schedule(sys, jobs)
		if len(res.Assignments) != len(jobs) {
			t.Fatalf("trial %d: %d of %d", trial, len(res.Assignments), len(jobs))
		}
	}
}
