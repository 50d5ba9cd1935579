package cluster

import (
	"mlimp/internal/event"
	"mlimp/internal/runtime"
)

// Policy picks the node that serves a batch. Pick is only offered
// eligible nodes (CanRun holds and the admission queue has room) in the
// fleet's fixed configuration order, and the slice is never empty —
// admission handles the no-room case before the policy runs. The
// dispatcher reuses the slice for its next pick, so Pick must not keep
// it.
type Policy interface {
	Name() string
	Pick(eligible []*Node, b *runtime.Batch, now event.Time) *Node
}

// RoundRobin rotates through the eligible nodes — the classic baseline
// that ignores both queue state and node speed.
type RoundRobin struct{ i int }

// NewRoundRobin returns a round-robin policy.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Policy.
func (p *RoundRobin) Name() string { return "roundrobin" }

// Clone returns an independent round-robin instance. The hub tree gives
// each regional sub-hub its own rotation cursor, so one region's picks
// never depend on how many batches another region routed.
func (p *RoundRobin) Clone() Policy { return &RoundRobin{} }

// Pick implements Policy.
func (p *RoundRobin) Pick(eligible []*Node, _ *runtime.Batch, _ event.Time) *Node {
	n := eligible[p.i%len(eligible)]
	p.i++
	return n
}

// LeastOutstanding picks the node with the fewest admitted-but-
// unfinished batches, ties broken by configuration order. Queue-aware
// but speed-blind: a short queue on a slow node still wins.
type LeastOutstanding struct{}

// NewLeastOutstanding returns a least-outstanding policy.
func NewLeastOutstanding() LeastOutstanding { return LeastOutstanding{} }

// Name implements Policy.
func (LeastOutstanding) Name() string { return "least-outstanding" }

// Pick implements Policy.
func (LeastOutstanding) Pick(eligible []*Node, _ *runtime.Batch, _ event.Time) *Node {
	best := eligible[0]
	for _, n := range eligible[1:] {
		if n.Outstanding() < best.Outstanding() {
			best = n
		}
	}
	return best
}

// PredictedCost picks the node minimising predicted drain time plus the
// batch's predicted service time there, both from the scheduler's
// analytical cost model (sched.System) — so a fast node with a deeper
// queue can beat an idle slow one. Ties break by configuration order.
type PredictedCost struct{}

// NewPredictedCost returns a predicted-cost policy.
func NewPredictedCost() PredictedCost { return PredictedCost{} }

// Name implements Policy.
func (PredictedCost) Name() string { return "predicted-cost" }

// UsesEstimates marks the policy as cost-model driven: the dispatcher
// must book per-batch cost estimates so PredictedDrain is meaningful.
// Policies without this marker let the sharded dispatcher skip the
// booking-time Schedule pass entirely — for estimate-blind policies that
// pass is pure overhead, and on the hub shard it would serialize the
// very planning work the node shards are meant to run in parallel.
func (PredictedCost) UsesEstimates() bool { return true }

// policyUsesEstimates reports whether the policy carries the
// UsesEstimates marker.
func policyUsesEstimates(p Policy) bool {
	u, ok := p.(interface{ UsesEstimates() bool })
	return ok && u.UsesEstimates()
}

// Pick implements Policy.
func (PredictedCost) Pick(eligible []*Node, b *runtime.Batch, now event.Time) *Node {
	best := eligible[0]
	bestCost := best.PredictedDrain(now) + best.EstimateCost(b.Jobs)
	for _, n := range eligible[1:] {
		if c := n.PredictedDrain(now) + n.EstimateCost(b.Jobs); c < bestCost {
			best, bestCost = n, c
		}
	}
	return best
}

// PolicyNames lists the built-in policies in canonical order.
func PolicyNames() []string {
	return []string{"roundrobin", "least-outstanding", "predicted-cost"}
}

// PolicyByName returns a fresh policy instance by canonical name.
func PolicyByName(name string) (Policy, bool) {
	switch name {
	case "roundrobin":
		return NewRoundRobin(), true
	case "least-outstanding":
		return NewLeastOutstanding(), true
	case "predicted-cost":
		return NewPredictedCost(), true
	}
	return nil, false
}
