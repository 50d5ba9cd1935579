// Scheduler playground: build a custom synthetic job mix, run all four
// schedulers on it, and sweep predictor noise to see how each degrades —
// the Section V-B3 stress test as an interactive example.
package main

import (
	"fmt"
	"math"
	"math/rand"

	"mlimp/internal/event"
	"mlimp/internal/isa"
	"mlimp/internal/sched"
)

// makeJobs builds a Pareto-sized batch with capacity-proportional
// working sets, mixed per-memory preferences, and optional log-normal
// noise between the scheduler's estimates and the truth.
func makeJobs(rng *rand.Rand, sys *sched.System, n int, sigma float64) []*sched.Job {
	targets := sys.Targets()
	jobs := make([]*sched.Job, n)
	for i := range jobs {
		baseMs := math.Pow(rng.Float64(), -1/1.5) * 0.5
		pref := targets[rng.Intn(len(targets))]
		frac := 0.03 + rng.Float64()*0.1
		var trueEst, noisy sched.Estimates
		for _, t := range targets {
			factor := 1 + rng.Float64()*3
			if t == pref {
				factor = 0.5 + rng.Float64()*0.5
			}
			ru := int(frac * float64(sys.Layers[t].Capacity()))
			if ru < 1 {
				ru = 1
			}
			cycles := int64(baseMs * factor * sys.Layers[t].Cfg.FreqMHz * 1000)
			p := sched.Profile{UnitCycles: cycles, RepUnit: ru, LoadBytes: 1 << 19, Beta: sched.DefaultBeta}
			trueEst.Set(t, p)
			q := p
			if sigma > 0 {
				q.UnitCycles = int64(float64(cycles) * math.Exp(rng.NormFloat64()*sigma))
				if q.UnitCycles < 1 {
					q.UnitCycles = 1
				}
			}
			noisy.Set(t, q)
		}
		j := &sched.Job{ID: i, Name: fmt.Sprintf("job%d", i), Kind: "synthetic", Est: &noisy}
		exact := &sched.Job{ID: -1, Est: &trueEst}
		j.TrueTime = func(s *sched.System, t isa.Target, arrays int) event.Time {
			return s.ModelTime(exact, t, arrays)
		}
		jobs[i] = j
	}
	return jobs
}

func main() {
	rng := rand.New(rand.NewSource(42))
	sys := sched.NewSystem(isa.Targets...)
	schedulers := []sched.Scheduler{
		sched.LJF{Strict: true}, sched.LJF{}, sched.NewAdaptive(), sched.NewGlobal(),
	}

	fmt.Println("exact predictions, 48 Pareto jobs:")
	base := makeJobs(rng, sys, 48, 0)
	for _, sc := range schedulers {
		res := sc.Schedule(sys, base)
		fmt.Printf("  %-10s makespan %8.3f ms, throughput %.0f jobs/s\n",
			sc.Name(), res.Makespan.Millis(), res.Throughput())
	}

	fmt.Println("\npredictor-noise sweep (mean of 8 trials):")
	fmt.Println("  sigma   adaptive(ms)  global(ms)")
	for _, sigma := range []float64{0, 0.2, 0.39, 0.6, 0.8} {
		var sumA, sumG float64
		const trials = 8
		for i := 0; i < trials; i++ {
			jobs := makeJobs(rng, sys, 48, sigma)
			sumA += sched.NewAdaptive().Schedule(sys, jobs).Makespan.Millis()
			sumG += sched.NewGlobal().Schedule(sys, jobs).Makespan.Millis()
		}
		fmt.Printf("  %.2f    %9.3f     %9.3f\n", sigma, sumA/trials, sumG/trials)
	}
}
