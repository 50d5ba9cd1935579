package sched_test

import (
	"reflect"
	"testing"

	"mlimp/internal/isa"
	"mlimp/internal/sched"
	"mlimp/internal/workload"
)

// cloneResult deep-copies a Result, array sets included, so a later
// comparison sees any write to the original's storage.
func cloneResult(r *sched.Result) *sched.Result {
	c := *r
	c.Assignments = append([]sched.Assignment(nil), r.Assignments...)
	for i := range c.Assignments {
		c.Assignments[i].ArrayIDs = r.Assignments[i].ArrayIDs.Clone()
	}
	return &c
}

// TestWorkspaceInvisible runs one mixed batch sequence — GCN, Table II
// and tenanted batches — through every scheduler on two identically
// built Systems, one of which drops its scheduling workspace before
// every call. Each pair of Results must be deep-equal, array IDs
// included, and no Result may change after it is returned: reusing the
// workspace must not show in anything a Schedule call hands out.
func TestWorkspaceInvisible(t *testing.T) {
	gcn := gcnBatches(5, 3)
	batches := [][]*sched.Job{
		gcn[0],
		workload.ComboJobs("D"),
		workload.AssignTenants(workload.ComboJobs("B"), 3),
		gcn[1],
		workload.AssignTenants(gcn[2], 2),
		workload.ComboJobs("A"),
	}
	// Each variant readies a System before batch b; "faults" shrinks and
	// regrows a layer between calls, so the warm workspace meets a free
	// set it was not sized for.
	variants := []struct {
		name   string
		before func(s *sched.System, b int)
	}{
		{"plain", func(*sched.System, int) {}},
		{"partitioned", func(s *sched.System, _ int) { s.Packing = sched.PackPartitioned }},
		{"weighted-fair", func(s *sched.System, _ int) { s.Packing = sched.PackWeightedFair }},
		{"replicate", func(s *sched.System, _ int) { s.Replication = sched.ReplicateWhenIdle }},
		{"degraded", func(s *sched.System, b int) {
			if b == 0 {
				s.Degrade(isa.DRAM, s.Layers[isa.DRAM].Capacity()/3)
			}
		}},
		{"faults", func(s *sched.System, b int) {
			if b%2 == 1 {
				s.Degrade(isa.ReRAM, 40000)
			} else {
				s.Restore(isa.ReRAM, 40000)
			}
		}},
	}
	for _, v := range variants {
		for _, sc := range []sched.Scheduler{sched.LJF{}, sched.NewAdaptive(), sched.NewGlobal()} {
			warm := sched.NewSystem(isa.Targets...)
			cold := sched.NewSystem(isa.Targets...)
			var got, want []*sched.Result
			for b, jobs := range batches {
				v.before(warm, b)
				v.before(cold, b)
				cold.DropWorkspace()
				res, ref := sc.Schedule(warm, jobs), sc.Schedule(cold, jobs)
				if !reflect.DeepEqual(res, ref) {
					t.Fatalf("%s %s batch%d: warm workspace result differs from a fresh one", v.name, sc.Name(), b)
				}
				got = append(got, res)
				want = append(want, cloneResult(res))
			}
			for b := range got {
				if !reflect.DeepEqual(got[b], want[b]) {
					t.Errorf("%s %s batch%d: result changed after later Schedule calls", v.name, sc.Name(), b)
				}
			}
		}
	}
}

// TestWarmGlobalScheduleAllocs: once a System's workspace has grown to
// a batch, the global scheduler's planning and execution passes reuse
// it, and a Schedule call allocates only what it returns — the Result,
// its Assignments and the one span slice behind their ArrayIDs.
func TestWarmGlobalScheduleAllocs(t *testing.T) {
	sys := sched.NewSystem(isa.Targets...)
	jobs := workload.ComboJobs("D")
	g := sched.NewGlobal()
	g.Schedule(sys, jobs)
	if n := testing.AllocsPerRun(20, func() { g.Schedule(sys, jobs) }); n > 3 {
		t.Errorf("warm Global.Schedule allocates %v times, want at most 3", n)
	}
}
