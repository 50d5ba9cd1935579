package sched_test

import (
	"testing"

	"mlimp/internal/isa"
	"mlimp/internal/sched"
)

// BenchmarkSchedule measures one scheduler's Section III-C core: each
// op schedules the same 8 gnn-batch-shaped GCN batches back to back on
// one System. One untimed pass warms the cost-model memos and the
// scheduling workspace first, so every op runs as warm as in a long
// batch stream and allocs/op counts warm calls only, whatever b.N a
// host reaches.
func BenchmarkSchedule(b *testing.B) {
	batches := gcnBatches(3, 8)
	for _, sc := range []sched.Scheduler{sched.LJF{}, sched.NewAdaptive(), sched.NewGlobal()} {
		b.Run(sc.Name(), func(b *testing.B) {
			sys := sched.NewSystem(isa.Targets...)
			for _, jobs := range batches {
				sc.Schedule(sys, jobs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, jobs := range batches {
					sc.Schedule(sys, jobs)
				}
			}
		})
	}
}

// BenchmarkKneeSearch measures one cold knee search, the grid search
// behind a knee memo miss. Each op searches the next distinct (profile,
// target) pair of 8 gnn-batch-shaped GCN batches in submission order,
// rotating, on one System — so the scale table sees the curve shapes of
// a batch stream in the order a scheduler meets them.
func BenchmarkKneeSearch(b *testing.B) {
	type query struct {
		j *sched.Job
		t isa.Target
	}
	type shape struct {
		p sched.Profile
		t isa.Target
	}
	var qs []query
	seen := map[shape]bool{}
	for _, jobs := range gcnBatches(3, 8) {
		for _, j := range jobs {
			for _, t := range isa.Targets {
				p, ok := j.Est.Get(t)
				if !ok || seen[shape{p, t}] {
					continue
				}
				seen[shape{p, t}] = true
				qs = append(qs, query{j, t})
			}
		}
	}
	sys := sched.NewSystem(isa.Targets...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		sys.KneeSearch(q.j, q.t)
	}
}
