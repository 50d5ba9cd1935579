package sched

import "mlimp/internal/isa"

// KneeSearch runs the knee search for job j on target t at the layer's
// current capacity without consulting the knee memo: the cold path of
// KneeAlloc, for benchmarks in package sched_test.
func (s *System) KneeSearch(j *Job, t isa.Target) int {
	return s.kneeSearch(&j.Est.p[t], t, s.Layers[t].Capacity())
}

// DropWorkspace discards the System's scheduling workspace, so the next
// Schedule call builds all of its scratch state afresh.
func (s *System) DropWorkspace() { s.ws = workspace{} }
