// Package fault defines the injectable fault plan the MLIMP stack
// consumes: deterministic, seed- and simulated-time-driven descriptions
// of the ways a real in-memory serving deployment degrades. ReRAM
// crossbars drift and wear out, DRAM rows fail, whole nodes crash with
// work in flight, and executions error out transiently — none of which
// the paper's always-healthy model represents. A Plan is pure data:
// device models shrink their effective array counts when an ArrayFault
// fires, the scheduler re-plans allocations against the reduced
// capacity, and internal/cluster turns Crash windows and ExecErrorProb
// into health states, circuit breaking, and re-dispatch.
//
// Everything here is deterministic. Faults are fixed (time, node,
// magnitude) tuples; execution errors are a pure hash of
// (seed, batch, attempt) so the same plan produces the same failures
// regardless of dispatch order or policy under test.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"mlimp/internal/event"
	"mlimp/internal/isa"
)

// Named validation errors. Validate wraps these with the offending
// entry's details, so callers (the CLI flag parsers, tests) match with
// errors.Is while users still see which fault is malformed.
var (
	// ErrBadProbability marks a probability outside [0, 1].
	ErrBadProbability = errors.New("fault: probability outside [0,1]")
	// ErrBadMagnitude marks an array fault that takes out nothing (or a
	// negative count / fraction).
	ErrBadMagnitude = errors.New("fault: bad array-fault magnitude")
	// ErrBadWindow marks a fault window that is negative or claims
	// transience with Recover <= At.
	ErrBadWindow = errors.New("fault: bad fault window")
	// ErrBadHubRegion marks a hub crash naming a negative region index.
	ErrBadHubRegion = errors.New("fault: hub crash names a bad region")
	// ErrHubCrashPermanent marks a hub crash without a recovery instant.
	// Hub crashes model the control plane, which a supervisor always
	// restarts — a permanently dead hub is a topology change, not chaos —
	// so Recover > At is mandatory.
	ErrHubCrashPermanent = errors.New("fault: hub crash must be transient (Recover > At)")
	// ErrBadEdge marks an edge fault with missing or self-loop endpoints,
	// or one that injects nothing (no drop, no delay).
	ErrBadEdge = errors.New("fault: bad edge fault")
)

// ArrayFault takes arrays of one computable-memory layer out of service
// on one node: the device's effective array count shrinks at At and —
// for a transient fault — comes back at Recover. Permanent loss
// (wear-out, a dead crossbar tile) leaves Recover zero. The magnitude
// is either absolute (Arrays) or relative (Fraction of the layer's
// healthy capacity, resolved by the consumer, which is how a generated
// plan stays independent of device configurations).
type ArrayFault struct {
	Node     string     // node name; "" applies to every node
	Target   isa.Target // which layer loses arrays
	Arrays   int        // how many arrays go dark (0: use Fraction)
	Fraction float64    // fraction of healthy capacity lost (used when Arrays == 0)
	At       event.Time
	Recover  event.Time // 0 = permanent
}

// Magnitude resolves the fault's array count against a layer's healthy
// capacity. At least one array is lost by a well-formed fault.
func (f ArrayFault) Magnitude(healthyCapacity int) int {
	n := f.Arrays
	if n == 0 && f.Fraction > 0 {
		n = int(f.Fraction * float64(healthyCapacity))
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Transient reports whether the fault heals on its own.
func (f ArrayFault) Transient() bool { return f.Recover > f.At }

// Crash takes a whole node down at At — heartbeats stop, queued and
// executing work is stranded until the fleet notices — and revives it
// at Recover (0 = the node never comes back).
type Crash struct {
	Node    string
	At      event.Time
	Recover event.Time // 0 = permanent
}

// Transient reports whether the node revives.
func (c Crash) Transient() bool { return c.Recover > c.At }

// HubCrash freezes one regional sub-hub's control plane at At and
// restarts it at Recover: while down the hub processes nothing — lossy
// traffic aimed at it (beacons, execution echoes) is lost, it runs no
// heartbeats, reliable traffic (forwards, relays, injected work) parks
// until revival — and its ring peers, missing its beacons, suspect it
// and adopt its nodes. Hub crashes are transient by decree: the control
// plane runs under a supervisor that always restarts it, so Validate
// rejects Recover <= At (ErrHubCrashPermanent).
type HubCrash struct {
	Region  int // region index in tree order
	At      event.Time
	Recover event.Time
}

// Transient reports whether the hub restarts. Well-formed hub crashes
// always are; the method exists for symmetry with Crash and for
// validation tests.
func (h HubCrash) Transient() bool { return h.Recover > h.At }

// EdgeFault degrades one directed fabric edge for a window: messages
// departing From toward To inside [At, Until) are dropped with
// probability DropProb and the survivors arrive Delay late. Until 0
// leaves the fault in force for the rest of the run. Endpoints name
// shards the consumer resolves — node names, or "hub<R>" for region R's
// hub shard. The drop coin is a pure hash of (plan seed, edge, key):
// a message's key is its per-pair sequence number, a heartbeat's its
// period index. So the same plan drops the same messages and heartbeats
// at every worker count.
type EdgeFault struct {
	From, To string
	At       event.Time
	Until    event.Time // 0 = rest of the run
	DropProb float64
	Delay    event.Time
}

// PartitionEdges returns the edge faults of a clean split-brain
// partition: every directed edge between a shard in a and a shard in b
// drops all traffic for [at, until). Shards listed in neither group
// keep full connectivity to both sides — the classic asymmetric
// partition comes from listing them in just one call.
func PartitionEdges(a, b []string, at, until event.Time) []EdgeFault {
	var fs []EdgeFault
	for _, x := range a {
		for _, y := range b {
			fs = append(fs,
				EdgeFault{From: x, To: y, At: at, Until: until, DropProb: 1},
				EdgeFault{From: y, To: x, At: at, Until: until, DropProb: 1})
		}
	}
	return fs
}

// Plan is one run's complete fault schedule. The zero value injects
// nothing; a Plan is immutable once handed to a consumer.
type Plan struct {
	// Seed drives the ExecError hash (and records the Generate seed).
	Seed int64
	// ArrayFaults and Crashes fire at their own simulated instants;
	// order within the slices does not matter.
	ArrayFaults []ArrayFault
	Crashes     []Crash
	// HubCrashes and EdgeFaults extend the failure surface from the
	// nodes to the dispatch fabric itself: frozen regional hubs and
	// lossy / slow fabric edges. Both require the hierarchical fabric
	// (Hubs > 1) — the flat hub is the observer the determinism contract
	// hangs off, so consumers reject plans that crash it.
	HubCrashes []HubCrash
	EdgeFaults []EdgeFault
	// ExecErrorProb is the probability that one execution of a batch
	// fails after running to completion (a transient job error: bad
	// analog readout, ECC trip, a cosmic ray in the peripheral). The
	// decision is a pure function of (Seed, batch ID, attempt), so
	// retrying the same batch redraws independently.
	ExecErrorProb float64
}

// Empty reports whether the plan injects nothing at all.
func (p *Plan) Empty() bool {
	return p == nil ||
		(len(p.ArrayFaults) == 0 && len(p.Crashes) == 0 &&
			len(p.HubCrashes) == 0 && len(p.EdgeFaults) == 0 &&
			p.ExecErrorProb <= 0)
}

// splitmix64 is the SplitMix64 finaliser — a cheap, well-mixed integer
// hash (Steele et al., "Fast splittable pseudorandom number
// generators") used to draw the deterministic ExecError coin.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ExecError reports whether execution `attempt` of batch `batchID`
// fails. Pure in (Seed, batchID, attempt): the same plan fails the same
// executions no matter which node runs them or in which order the
// dispatcher asks.
func (p *Plan) ExecError(batchID, attempt int) bool {
	if p == nil || p.ExecErrorProb <= 0 {
		return false
	}
	if p.ExecErrorProb >= 1 {
		return true
	}
	h := splitmix64(uint64(p.Seed)<<32 ^ uint64(uint32(batchID))<<16 ^ uint64(uint32(attempt)))
	// 53 high bits -> uniform float in [0, 1).
	u := float64(h>>11) / float64(1<<53)
	return u < p.ExecErrorProb
}

// Validate rejects plans no consumer can honour. Every rejection wraps
// one of the named errors above.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	if p.ExecErrorProb < 0 || p.ExecErrorProb > 1 {
		return fmt.Errorf("%w: exec error probability %v", ErrBadProbability, p.ExecErrorProb)
	}
	for i, f := range p.ArrayFaults {
		if f.Arrays < 0 || (f.Arrays == 0 && f.Fraction <= 0) || f.Fraction < 0 || f.Fraction > 1 {
			return fmt.Errorf("%w: array fault %d (arrays=%d fraction=%v)",
				ErrBadMagnitude, i, f.Arrays, f.Fraction)
		}
		if f.At < 0 || (f.Recover != 0 && f.Recover <= f.At) {
			return fmt.Errorf("%w: array fault %d [%v, %v]", ErrBadWindow, i, f.At, f.Recover)
		}
	}
	for i, c := range p.Crashes {
		if c.At < 0 || (c.Recover != 0 && c.Recover <= c.At) {
			return fmt.Errorf("%w: crash %d [%v, %v]", ErrBadWindow, i, c.At, c.Recover)
		}
	}
	for i, h := range p.HubCrashes {
		if h.Region < 0 {
			return fmt.Errorf("%w: hub crash %d region %d", ErrBadHubRegion, i, h.Region)
		}
		if h.At < 0 {
			return fmt.Errorf("%w: hub crash %d at %v", ErrBadWindow, i, h.At)
		}
		if !h.Transient() {
			return fmt.Errorf("%w: hub crash %d [%v, %v]", ErrHubCrashPermanent, i, h.At, h.Recover)
		}
	}
	for i, e := range p.EdgeFaults {
		if e.From == "" || e.To == "" || e.From == e.To {
			return fmt.Errorf("%w: edge fault %d endpoints %q -> %q", ErrBadEdge, i, e.From, e.To)
		}
		if e.DropProb < 0 || e.DropProb > 1 {
			return fmt.Errorf("%w: edge fault %d drop %v", ErrBadProbability, i, e.DropProb)
		}
		if e.Delay < 0 || e.At < 0 || (e.Until != 0 && e.Until <= e.At) {
			return fmt.Errorf("%w: edge fault %d window [%v, %v] delay %v",
				ErrBadWindow, i, e.At, e.Until, e.Delay)
		}
		if e.DropProb == 0 && e.Delay == 0 {
			return fmt.Errorf("%w: edge fault %d injects nothing (drop=0 delay=0)", ErrBadEdge, i)
		}
	}
	return nil
}

// String renders the plan one fault per line, in time order — the
// header of a chaos run's artefact.
func (p *Plan) String() string {
	if p.Empty() {
		return "fault-plan(empty)"
	}
	type line struct {
		at   event.Time
		text string
	}
	var lines []line
	for _, f := range p.ArrayFaults {
		node := f.Node
		if node == "" {
			node = "*"
		}
		kind := "permanent"
		if f.Transient() {
			kind = fmt.Sprintf("until %.3fms", f.Recover.Millis())
		}
		mag := fmt.Sprintf("arrays=%d", f.Arrays)
		if f.Arrays == 0 {
			mag = fmt.Sprintf("fraction=%.2f", f.Fraction)
		}
		lines = append(lines, line{f.At, fmt.Sprintf("  %.3fms array-fault node=%s layer=%s %s (%s)",
			f.At.Millis(), node, f.Target, mag, kind)})
	}
	for _, c := range p.Crashes {
		kind := "permanent"
		if c.Transient() {
			kind = fmt.Sprintf("revives %.3fms", c.Recover.Millis())
		}
		lines = append(lines, line{c.At, fmt.Sprintf("  %.3fms crash node=%s (%s)",
			c.At.Millis(), c.Node, kind)})
	}
	for _, h := range p.HubCrashes {
		lines = append(lines, line{h.At, fmt.Sprintf("  %.3fms hub-crash region=%d (restarts %.3fms)",
			h.At.Millis(), h.Region, h.Recover.Millis())})
	}
	for _, e := range p.EdgeFaults {
		until := "end"
		if e.Until != 0 {
			until = fmt.Sprintf("%.3fms", e.Until.Millis())
		}
		lines = append(lines, line{e.At, fmt.Sprintf("  %.3fms edge-fault %s->%s drop=%.2f delay=%.3fms (until %s)",
			e.At.Millis(), e.From, e.To, e.DropProb, e.Delay.Millis(), until)})
	}
	sort.SliceStable(lines, func(i, j int) bool { return lines[i].at < lines[j].at })
	var sb strings.Builder
	fmt.Fprintf(&sb, "fault-plan(seed=%d exec-error=%.2f\n", p.Seed, p.ExecErrorProb)
	for _, l := range lines {
		sb.WriteString(l.text)
		sb.WriteByte('\n')
	}
	sb.WriteString(")")
	return sb.String()
}

// GenConfig parameterises Generate: expected fault counts over a run
// horizon, drawn deterministically from the seed.
type GenConfig struct {
	// Nodes are the fleet's node names in configuration order.
	Nodes []string
	// Horizon is the simulated window faults are drawn inside.
	Horizon event.Time
	// ArrayFaultsPerNode is the expected number of array faults each
	// node suffers over the horizon (can be fractional).
	ArrayFaultsPerNode float64
	// ArrayFraction is the fraction of a layer's arrays one fault takes
	// out (0 means DefaultArrayFraction).
	ArrayFraction float64
	// TransientFraction is the share of array faults that heal (the
	// rest are permanent wear-out). 0 means DefaultTransientFraction;
	// negative means all faults are permanent.
	TransientFraction float64
	// Targets the faults draw from (defaults to isa.Targets).
	Targets []isa.Target
	// CrashesPerNode is the expected number of crash windows per node.
	CrashesPerNode float64
	// MeanOutage is the mean crash/transient-fault outage length
	// (0 means a tenth of the horizon).
	MeanOutage event.Time
	// ExecErrorProb passes through to the plan.
	ExecErrorProb float64
}

// Default generator shares.
const (
	DefaultArrayFraction     = 0.5
	DefaultTransientFraction = 0.5
)

// Generate draws a deterministic fault plan from the seed: Poisson-ish
// fault counts per node (expectation rounded by an independent draw),
// uniform fault instants over the horizon, exponential outage lengths.
// Iteration is in node-slice order, so the same (seed, config) is
// always the same plan.
func Generate(seed int64, cfg GenConfig) (*Plan, error) {
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("fault: generate needs a positive horizon, got %v", cfg.Horizon)
	}
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("fault: generate needs node names")
	}
	frac := cfg.ArrayFraction
	if frac <= 0 {
		frac = DefaultArrayFraction
	}
	if frac > 1 {
		frac = 1
	}
	transient := cfg.TransientFraction
	if transient == 0 {
		transient = DefaultTransientFraction
	} else if transient < 0 {
		transient = 0 // explicit "all permanent"
	}
	targets := cfg.Targets
	if len(targets) == 0 {
		targets = isa.Targets
	}
	outage := cfg.MeanOutage
	if outage <= 0 {
		outage = cfg.Horizon / 10
	}
	rng := rand.New(rand.NewSource(seed))
	// count draws an integer with the given expectation: the integer
	// part always happens, the fractional part by one biased coin.
	count := func(expect float64) int {
		n := int(expect)
		if rng.Float64() < expect-float64(n) {
			n++
		}
		return n
	}
	// window draws a fault instant plus (for the transient share) an
	// exponential outage.
	window := func(healProb float64) (at, rec event.Time) {
		at = 1 + event.Time(rng.Float64()*float64(cfg.Horizon-1))
		if rng.Float64() < healProb {
			rec = at + 1 + event.Time(rng.ExpFloat64()*float64(outage))
		}
		return at, rec
	}
	p := &Plan{Seed: seed, ExecErrorProb: cfg.ExecErrorProb}
	for _, node := range cfg.Nodes {
		for i := 0; i < count(cfg.ArrayFaultsPerNode); i++ {
			at, rec := window(transient)
			p.ArrayFaults = append(p.ArrayFaults, ArrayFault{
				Node:     node,
				Target:   targets[rng.Intn(len(targets))],
				Fraction: frac,
				At:       at,
				Recover:  rec,
			})
		}
		for i := 0; i < count(cfg.CrashesPerNode); i++ {
			// Crashes always revive in generated plans (a permanently
			// lost node is a capacity-planning decision, not chaos);
			// hand-written plans can still set Recover = 0.
			at, rec := window(1)
			p.Crashes = append(p.Crashes, Crash{Node: node, At: at, Recover: rec})
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
