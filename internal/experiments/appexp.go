package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"mlimp/internal/apps"
	"mlimp/internal/event"
	"mlimp/internal/isa"
	"mlimp/internal/sched"
	"mlimp/internal/stats"
	"mlimp/internal/workload"
)

func init() {
	register("fig17", "Data-parallel kernel execution time per memory", fig17)
	register("fig18", "Multiprogramming combinations A-G", fig18)
	register("fig19", "Scheduling approaches on the combinations", fig19)
	register("stress", "Predictor-noise stress test (Sec. V-B3)", stress)
}

// fig17: standalone kernel time of each app on each memory, normalised
// to the minimum.
func fig17() *Result {
	sys := newFullSystem()
	t := &table{header: []string{"application", "SRAM", "DRAM", "ReRAM", "prefers"}}
	for _, a := range apps.Suite() {
		times := map[isa.Target]float64{}
		minT := math.Inf(1)
		for _, tgt := range isa.Targets {
			v := workload.StandaloneTime(sys, a, tgt)
			times[tgt] = v
			if v < minT {
				minT = v
			}
		}
		t.add(a.Name, f2(times[isa.SRAM]/minT), f2(times[isa.DRAM]/minT),
			f2(times[isa.ReRAM]/minT), workload.PreferredTarget(sys, a).String())
	}
	return &Result{ID: "fig17", Title: "per-memory kernel time (normalised to min)", Text: t.String()}
}

// fig18: combos on MLIMP-ALL versus single-layer systems.
func fig18() *Result {
	t := &table{header: []string{"combo", "ALL(ms)", "SRAM-only", "DRAM-only", "ReRAM-only", "best-single/ALL"}}
	var advantages []float64
	for _, name := range workload.ComboNames() {
		jobs := workload.ComboJobs(name)
		all := sched.NewSystem(isa.Targets...)
		mAll := sched.NewGlobal().Schedule(all, jobs).Makespan
		single := map[isa.Target]event.Time{}
		best := event.Time(math.MaxInt64)
		for _, tgt := range isa.Targets {
			s := sched.NewSystem(tgt)
			m := sched.NewGlobal().Schedule(s, jobs).Makespan
			single[tgt] = m
			if m < best {
				best = m
			}
		}
		adv := float64(best) / float64(mAll)
		advantages = append(advantages, adv)
		t.add(name, f3(mAll.Millis()), f2(float64(single[isa.SRAM])/float64(mAll)),
			f2(float64(single[isa.DRAM])/float64(mAll)),
			f2(float64(single[isa.ReRAM])/float64(mAll)), f2(adv))
	}
	text := t.String() + fmt.Sprintf("geomean advantage over the best single layer: %.2fx (paper: 7.1x over single-layer IMP)\n",
		stats.GeoMean(advantages))
	return &Result{ID: "fig18", Title: "multiprogramming", Text: text}
}

// fig19: scheduler comparison on the combos.
func fig19() *Result {
	scheds := []sched.Scheduler{sched.LJF{}, sched.NewAdaptive(), sched.NewGlobal()}
	t := &table{header: []string{"combo", "ljf(ms)", "adaptive(ms)", "global(ms)"}}
	for _, name := range workload.ComboNames() {
		jobs := workload.ComboJobs(name)
		row := []string{name}
		for _, sc := range scheds {
			sys := sched.NewSystem(isa.Targets...)
			row = append(row, f3(sc.Schedule(sys, jobs).Makespan.Millis()))
		}
		t.add(row...)
	}
	return &Result{ID: "fig19", Title: "scheduler comparison on combos", Text: t.String()}
}

// stress: Pareto jobs with increasing Gaussian predictor noise.
func stress() *Result {
	rng := rand.New(rand.NewSource(190))
	sys := newFullSystem()
	t := &table{header: []string{"sigma", "adaptive(ms)", "global(ms)", "adaptive/global"}}
	for _, sigma := range []float64{0, 0.1, 0.2, 0.39, 0.6, 0.8} {
		var sumA, sumG float64
		const trials = 8
		for i := 0; i < trials; i++ {
			jobs := stressBatch(rng, sys, 48, sigma)
			sumA += sched.NewAdaptive().Schedule(sys, jobs).Makespan.Millis()
			sumG += sched.NewGlobal().Schedule(sys, jobs).Makespan.Millis()
		}
		t.add(f2(sigma), f3(sumA/trials), f3(sumG/trials), f3(sumA/sumG))
	}
	text := t.String() + "paper: adaptive overtakes global beyond sigma ~0.39 (batch 64); our adaptive\n" +
		"dispatcher also rebalances at runtime, so the ratio trends toward 1 with noise\n" +
		"rather than crossing hard (see EXPERIMENTS.md).\n"
	return &Result{ID: "stress", Title: "noise stress test", Text: text}
}

// stressBatch builds Pareto-sized jobs with capacity-proportional
// working sets and log-normal estimate noise, keeping the truth.
func stressBatch(rng *rand.Rand, sys *sched.System, n int, sigma float64) []*sched.Job {
	targets := sys.Targets()
	freq := map[isa.Target]float64{}
	for _, t := range targets {
		freq[t] = sys.Layers[t].Cfg.FreqMHz
	}
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
			p := sched.Profile{
				UnitCycles: int64(baseMs * factor * freq[t] * 1000),
				RepUnit:    ru, LoadBytes: 1 << 19, Beta: sched.DefaultBeta,
			}
			trueEst.Set(t, p)
			q := p
			if sigma > 0 {
				q.UnitCycles = int64(float64(p.UnitCycles) * math.Exp(rng.NormFloat64()*sigma))
				if q.UnitCycles < 1 {
					q.UnitCycles = 1
				}
			}
			noisy.Set(t, q)
		}
		j := &sched.Job{ID: i, Name: "stress", Kind: "stress", Est: &noisy}
		exact := &sched.Job{ID: -1, Est: &trueEst}
		j.TrueTime = func(s *sched.System, t isa.Target, arrays int) event.Time {
			return s.ModelTime(exact, t, arrays)
		}
		jobs[i] = j
	}
	return jobs
}
