package sched_test

import (
	"testing"

	"mlimp/internal/isa"
	"mlimp/internal/sched"
)

// BenchmarkSchedule measures one scheduler's Section III-C core: each
// op schedules the same 8 gnn-batch-shaped GCN batches back to back on
// one System, so after the first op the cost-model memos are as warm as
// in a long batch stream.
func BenchmarkSchedule(b *testing.B) {
	batches := gcnBatches(3, 8)
	for _, sc := range []sched.Scheduler{sched.LJF{}, sched.NewAdaptive(), sched.NewGlobal()} {
		b.Run(sc.Name(), func(b *testing.B) {
			sys := sched.NewSystem(isa.Targets...)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, jobs := range batches {
					sc.Schedule(sys, jobs)
				}
			}
		})
	}
}
