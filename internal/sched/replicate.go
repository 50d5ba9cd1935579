package sched

import (
	"fmt"
	"math"

	"mlimp/internal/event"
	"mlimp/internal/isa"
)

// Replicate-when-idle (ROADMAP item 3, after LRMP). A bottleneck stage —
// the (stage, layer) group with the largest aggregate modelled time —
// serialises every job that crosses it while neighbouring arrays idle.
// When the policy is on, the scheduler carves standing replicas of that
// stage out of the layer's free list: each replica keeps the stage's
// stationary working set programmed, so independent jobs fan across the
// replicas and skip the per-invocation load/reprogram traffic entirely.
// Replicas are System-level state, not per-batch state: weights stay
// programmed across Schedule calls (the serving-reuse point), are torn
// down first when Degrade shrinks the layer, and are re-carved when
// Restore brings the capacity back.
//
// The replica arrays leave the layer's free set, so every memoised
// quantity keyed on the free-set signature (knee allocations, plan
// times) re-keys automatically; refreshSig additionally mixes the
// replica sets into the signature so two configurations with equal free
// sets but different replicas can never share a memo entry.

// ReplicationPolicy selects whether the scheduler may turn idle arrays
// into standing stage replicas.
type ReplicationPolicy uint8

// Replication policies.
const (
	ReplicateOff ReplicationPolicy = iota
	ReplicateWhenIdle
	numReplications
)

// String names the policy.
func (p ReplicationPolicy) String() string {
	switch p {
	case ReplicateOff:
		return "off"
	case ReplicateWhenIdle:
		return "when-idle"
	}
	return fmt.Sprintf("replication(%d)", uint8(p))
}

// ReplicationNames lists the policy names in declaration order.
func ReplicationNames() []string {
	out := make([]string, 0, int(numReplications))
	for p := ReplicationPolicy(0); p < numReplications; p++ {
		out = append(out, p.String())
	}
	return out
}

// ReplicationByName resolves a policy name.
func ReplicationByName(name string) (ReplicationPolicy, bool) {
	for p := ReplicationPolicy(0); p < numReplications; p++ {
		if p.String() == name {
			return p, true
		}
	}
	return ReplicateOff, false
}

// Replica is one standing copy of a bottleneck stage: a pinned array
// set holding the stage's stationary operands, serving matching jobs
// one at a time without drawing on the layer's pool or slots.
type Replica struct {
	Stage  string
	Prof   Profile // the stage profile the replica was sized for
	Arrays int
	Set    ArraySet // the physical arrays pinned
}

// repSpec remembers the replica configuration a Degrade tore down so
// Restore can rebuild it (the "reclaimed first, rebuilt on Restore"
// contract).
type repSpec struct {
	stage  string
	prof   Profile
	arrays int
	count  int
}

// refreshSig recomputes the layer's memo signature from the free set
// and the pinned replica sets.
func (l *Layer) refreshSig() {
	sig := l.avail.Signature()
	for _, r := range l.replicas {
		sig = sig*1099511628211 ^ r.Set.Signature()
	}
	l.sig = sig
}

// Replicas returns a copy of the standing replicas on layer t.
func (s *System) Replicas(t isa.Target) []Replica {
	l := s.Layers[t]
	if l == nil || len(l.replicas) == 0 {
		return nil
	}
	return append([]Replica(nil), l.replicas...)
}

// ReplicaCount returns the number of standing replicas across layers.
func (s *System) ReplicaCount() int {
	n := 0
	for _, t := range s.Targets() {
		n += len(s.Layers[t].replicas)
	}
	return n
}

// replicaPin returns the layer currently holding replicas, if any; the
// policy pins at most one stage at a time.
func (s *System) replicaPin() (isa.Target, Replica, bool) {
	for _, t := range s.Targets() {
		if l := s.Layers[t]; len(l.replicas) > 0 {
			return t, l.replicas[0], true
		}
	}
	return 0, Replica{}, false
}

// replicaTargetFor returns the layer holding a standing replica of j's
// stage, if the job can run there — the routing override that keeps
// stage jobs flowing to their replicas even when the shrunk free set
// would flip their BestTarget elsewhere.
func (s *System) replicaTargetFor(j *Job) (isa.Target, bool) {
	if j.Stage == "" {
		return 0, false
	}
	for _, t := range s.Targets() {
		l := s.Layers[t]
		if len(l.replicas) > 0 && l.replicas[0].Stage == j.Stage {
			if j.Est.Has(t) {
				return t, true
			}
		}
	}
	return 0, false
}

// replicaRouter decides, job by job, whether a pinned stage's job
// queues on the replica layer or stays on its best pool target. The
// k-th job sent to the replicas expects to wait ceil(k/replicas) serial
// replica invocations, so diversion stops exactly when that pile-up
// would exceed the job's best pool time — the replicas absorb the
// stage's serialisation without dragging the whole stage onto one layer
// and starving the balanced partition (jobs already bound for the
// replica layer count toward the pile-up but are never displaced).
type replicaRouter struct {
	sys    *System
	routed int
}

// route returns the layer job j should queue on, given its best pool
// target and the modelled time there.
func (r *replicaRouter) route(j *Job, bt isa.Target, btime event.Time) isa.Target {
	rt, ok := r.sys.replicaTargetFor(j)
	if !ok {
		return bt
	}
	l := r.sys.Layers[rt]
	rep := l.replicas[0]
	wave := event.Time(r.routed/len(l.replicas) + 1)
	if rt == bt || wave*r.sys.ReplicaTime(j.Est.p[rt], rt, rep.Arrays) < btime {
		r.routed++
		return rt
	}
	return bt
}

// ReplicaTime models one job invocation on a standing replica: the
// stage's stationary operands are already programmed, so the
// per-invocation load stream, ReRAM reprogramming, and replication copy
// rounds all vanish — only the launch overhead, the result store, and
// the compute term remain. Deterministic and model-driven on both the
// planning and execution paths, so estimates on replicas are exact.
func (s *System) ReplicaTime(p Profile, t isa.Target, arrays int) event.Time {
	var mt modelTerms
	mt.init(s, &p, t)
	return mt.fixed + event.Time(mt.cycles*mt.scale(mt.eff(arrays)))
}

// replicaBudget returns how many arrays of a layer's current capacity
// may be pinned into replicas: everything above the reserve of half the
// in-service arrays, which stays free so regular placement (and every
// tenant's packing share) remains schedulable. This is the "when idle"
// in the policy name — replication only ever consumes spare capacity.
func replicaBudget(capacity int) int {
	return capacity - (capacity+1)/2
}

// EnsureReplicas plans the standing replicas for a batch. Under
// ReplicateOff it tears any replicas down; under ReplicateWhenIdle it
// keeps the current pin while the batch still has at least two jobs of
// the pinned stage (weights stay programmed between batches), and
// otherwise re-plans: the bottleneck (stage, layer) group — the largest
// aggregate knee-allocation model time with at least two independent
// jobs — gets as many knee-sized replicas as the idle budget affords.
func (s *System) EnsureReplicas(jobs []*Job) {
	if s.Replication != ReplicateWhenIdle {
		s.DropReplicas()
		return
	}
	if t, r, ok := s.replicaPin(); ok {
		n := 0
		for _, j := range jobs {
			if j.Stage == r.Stage {
				if j.Est.Has(t) {
					n++
				}
			}
		}
		if n >= 2 {
			return
		}
		s.DropReplicas()
	}
	stage, t, prof, count := s.bottleneckStage(jobs)
	if count < 2 {
		return
	}
	l := s.Layers[t]
	arrays := s.kneeForProfile(&prof, prof.hash(0), t)
	if arrays < 1 {
		arrays = 1
	}
	n := replicaBudget(l.Capacity()) / arrays
	if n > count {
		n = count
	}
	if n < 1 {
		return
	}
	for i := 0; i < n; i++ {
		l.replicas = append(l.replicas, Replica{
			Stage: stage, Prof: prof, Arrays: arrays,
			// Highest IDs first: Degrade also takes from the top, so a
			// shrinking layer reclaims replica arrays before pool arrays.
			Set: l.avail.TakeHighest(arrays),
		})
	}
	l.repWant = nil
	l.refreshSig()
	s.clearKneeMemo()
}

// DropReplicas tears down every standing replica, returning its arrays
// to the free lists. It reports how many arrays were released.
func (s *System) DropReplicas() int {
	total := 0
	changed := false
	for _, t := range s.Targets() {
		l := s.Layers[t]
		if len(l.replicas) == 0 {
			continue
		}
		for i := len(l.replicas) - 1; i >= 0; i-- {
			l.avail.Add(l.replicas[i].Set)
			total += l.replicas[i].Arrays
		}
		l.replicas = nil
		l.refreshSig()
		changed = true
	}
	if changed {
		s.clearKneeMemo()
	}
	return total
}

// bottleneckStage groups the batch's staged jobs by (stage, best layer)
// and returns the group with the largest aggregate knee-allocation
// model time — the stage whose serialisation dominates the batch.
// Groups are visited in first-appearance order so ties break
// deterministically in job-submission order.
func (s *System) bottleneckStage(jobs []*Job) (stage string, t isa.Target, prof Profile, count int) {
	type key struct {
		stage string
		t     isa.Target
	}
	type agg struct {
		prof  Profile
		total event.Time
		count int
	}
	var order []key
	aggs := map[key]*agg{}
	for _, j := range jobs {
		if j.Stage == "" {
			continue
		}
		bt, btime := s.BestTarget(j)
		if btime == math.MaxInt64 {
			continue
		}
		k := key{j.Stage, bt}
		a := aggs[k]
		if a == nil {
			a = &agg{prof: j.Est.p[bt]}
			aggs[k] = a
			order = append(order, k)
		}
		a.total += btime
		a.count++
	}
	var best *agg
	for _, k := range order {
		a := aggs[k]
		if a.count < 2 {
			continue
		}
		if best == nil || a.total > best.total {
			best = a
			stage, t = k.stage, k.t
		}
	}
	if best == nil {
		return "", 0, Profile{}, 0
	}
	return stage, t, best.prof, best.count
}
