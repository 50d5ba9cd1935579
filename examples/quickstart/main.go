// Quickstart: build an MLIMP system, describe a data-parallel kernel as
// a SIMD DFG, cross-compile it for every in-memory ISA, submit jobs, and
// read the report. This is the smallest end-to-end use of the library.
package main

import (
	"fmt"

	"mlimp/internal/core"
	"mlimp/internal/dfg"
	"mlimp/internal/fixed"
	"mlimp/internal/isa"
	memory "mlimp/internal/mem"
	"mlimp/internal/sched"
)

func main() {
	// 1. Describe a kernel once with the common programming frontend:
	//    a fused multiply-add over a vector, y = a*x + b.
	g := dfg.NewGraph("axpy")
	x := g.Input("x")
	a := g.ConstFloat(1.5)
	b := g.ConstFloat(-0.25)
	g.Output(g.Add(g.Mul(a, x), b))

	// 2. The frontend doubles as a functional reference: run it.
	out, err := g.Run(map[string][]fixed.Num{
		"x": {fixed.FromFloat(2), fixed.FromFloat(-4)},
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("axpy([2,-4]) = [%v, %v]\n", out[0][0].Float(), out[0][1].Float())

	// 3. Cross-compile for the three in-memory ISAs and inspect the
	//    static cycle analysis the scheduler consumes.
	progs, err := isa.CompileAll(g)
	if err != nil {
		panic(err)
	}
	for _, t := range isa.Targets {
		fmt.Println(progs[t])
	}

	// 4. Build the MLIMP system (all three Table III memories) and
	//    submit a batch of jobs with per-memory cost profiles.
	sys := core.New(nil)
	var jobs []*sched.Job
	for i := 0; i < 16; i++ {
		var est sched.Estimates
		elements := int64(1 << 20)
		for _, t := range isa.Targets {
			cfg := memory.ConfigFor(t)
			lanes := int64(64) * int64(cfg.ALUsPerArray)
			waves := (elements + lanes - 1) / lanes
			est.Set(t, sched.Profile{
				UnitCycles: progs[t].Cycles * waves,
				RepUnit:    64,
				LoadBytes:  sched.EffectiveLoadBytes(t, elements*2),
				StoreBytes: sched.EffectiveLoadBytes(t, elements*2),
				Beta:       sched.DefaultBeta,
			})
		}
		jobs = append(jobs, &sched.Job{ID: i, Name: fmt.Sprintf("axpy-%d", i), Kind: "axpy", Est: &est})
	}
	rep := sys.Run(jobs)
	fmt.Printf("\nscheduled %d jobs: %v\n", len(jobs), rep)
	fmt.Printf("placements: %v\n", rep.TargetJobs)
	fmt.Printf("energy: %s\n", rep.Energy)
}
