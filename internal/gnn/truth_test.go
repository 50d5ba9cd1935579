package gnn

import (
	"math/rand"
	"sync"
	"testing"

	"mlimp/internal/event"
	"mlimp/internal/isa"
	"mlimp/internal/kernels"
	"mlimp/internal/mainmem"
	"mlimp/internal/sched"
	"mlimp/internal/tensor"
)

// refTrueSpMMTime is the direct ground truth the memo must reproduce:
// one kernel-model pass per call.
func refTrueSpMMTime(sys *sched.System, adj *tensor.CSR, f int, t isa.Target, arrays, bits int) event.Time {
	cfg := mem(t)
	est := kernels.SpMM(cfg, adj, f, arrays, true)
	cycles := scaleBits(est.Cycles*int64(est.Iterations), bits)
	return HostDispatch + cfg.Clock().Cycles(cycles) +
		sys.DDR.StreamTime(sched.EffectiveLoadBytes(t, scaleBits(est.LoadBytes, bits))) +
		sys.DDR.StreamTime(sched.EffectiveLoadBytes(t, scaleBits(est.StoreBytes, bits)))
}

// TestSpMMTruthMatchesDirect drives the memoised ground truth of every
// job of a workload through random (target, arrays) sequences — half
// the calls repeat the previous pair, as placement does — on two
// Systems with different DDR configurations, from four goroutines at
// once.
// Every call must equal the direct computation on the System passed in.
func TestSpMMTruthMatchesDirect(t *testing.T) {
	w := testWorkload(t, 11, 2, 4)
	ddr := mainmem.DDR4_2400()
	ddr.Channels = 1
	slow := sched.NewSystem(isa.Targets...)
	slow.DDR = ddr
	systems := []*sched.System{sched.NewSystem(isa.Targets...), slow}

	type job struct {
		adj     *tensor.CSR
		f, bits int
		truth   *spmmTruth
	}
	var jobs []job
	for _, sg := range w.Subgraphs() {
		for _, c := range []struct{ f, bits int }{{128, 16}, {64, 8}, {256, 4}} {
			jobs = append(jobs, job{sg.Adj, c.f, c.bits, &spmmTruth{adj: sg.Adj, f: c.f, bits: c.bits}})
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for _, j := range jobs {
				tgt, arrays := isa.SRAM, 1
				for i := 0; i < 200; i++ {
					if i == 0 || rng.Intn(2) == 0 {
						tgt = isa.Targets[rng.Intn(len(isa.Targets))]
						arrays = 1 + rng.Intn(4*kernels.SpMMUnit(mem(tgt), j.adj, j.f, true).RepUnit)
					}
					sys := systems[rng.Intn(len(systems))]
					got, want := j.truth.time(sys, tgt, arrays), refTrueSpMMTime(sys, j.adj, j.f, tgt, arrays, j.bits)
					if got != want {
						t.Errorf("f=%d bits=%d %s arrays=%d: %d, direct %d", j.f, j.bits, tgt, arrays, got, want)
						return
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
}
