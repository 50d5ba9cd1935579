package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"mlimp/internal/event"
	"mlimp/internal/isa"
	"mlimp/internal/runtime"
	"mlimp/internal/sched"
	"mlimp/internal/stats"
)

// Admission bounds how much work the fleet accepts — the backpressure
// layer between an open arrival stream and finite nodes.
type Admission struct {
	// QueueCap is the maximum admitted-but-unfinished batches per node
	// (queued plus executing). 0 means DefaultQueueCap.
	QueueCap int
	// MaxRetries is how many times an arrival that finds every queue
	// full is re-dispatched after a backoff instead of being shed
	// immediately. 0 disables retries.
	MaxRetries int
	// Backoff is the delay before the first retry; it doubles each
	// attempt (simulated time). 0 means DefaultBackoff.
	Backoff event.Time
}

// DefaultQueueCap matches the per-device outstanding-job bound the
// paper uses ("up to 8", Section V-A), applied at batch granularity.
const DefaultQueueCap = 8

// DefaultBackoff is the initial retry delay, sized against the
// ~10ms-scale batch service times of the Table II app suite so a
// handful of doubling retries spans one batch drain.
const DefaultBackoff = 500 * event.Microsecond

func (a Admission) queueCap() int {
	if a.QueueCap > 0 {
		return a.QueueCap
	}
	return DefaultQueueCap
}

func (a Admission) backoff() event.Time {
	if a.Backoff > 0 {
		return a.Backoff
	}
	return DefaultBackoff
}

// maxBackoffShift caps the exponential-backoff doubling (~0.5s at the
// default base). Shifting event.Time by the raw attempt count would
// overflow into a negative delay around attempt 40 and panic the
// engine; beyond the cap the delay simply stays at its maximum.
const maxBackoffShift = 10

// retryDelay is the clamped exponential backoff for the given attempt.
func retryDelay(base event.Time, attempt int) event.Time {
	if attempt > maxBackoffShift {
		attempt = maxBackoffShift
	}
	return base << attempt
}

// Outcome is the terminal state of one batch.
type Outcome int

const (
	// OutcomeCompleted batches finished on a node.
	OutcomeCompleted Outcome = iota
	// OutcomeShed batches were refused at admission (fleet saturated).
	OutcomeShed
	// OutcomeDeadLettered batches exhausted their failure budget.
	OutcomeDeadLettered
)

// String renders the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeCompleted:
		return "completed"
	case OutcomeShed:
		return "shed"
	}
	return "dead-lettered"
}

// DoneInfo describes one batch reaching its terminal state, delivered
// to the dispatcher's OnDone hook on the hub at the instant the
// dispatcher settles the batch. For completed batches Result carries
// the node-side execution record (including per-job assignments when
// the fabric records them) and Node names the node that ran it.
type DoneInfo struct {
	Batch   *runtime.Batch
	Outcome Outcome
	At      event.Time // hub time of the terminal decision
	Node    string     // completing node; "" unless completed
	Result  runtime.BatchResult
}

// tracker follows one submitted batch to exactly one terminal state:
// completed, shed, or dead-lettered. The generation counter invalidates
// deadline timers armed for superseded bookings.
type tracker struct {
	b            *runtime.Batch
	node         *Node // current booking's view
	idx          int   // current booking's view index
	attempts     int   // times accepted by a node (execution starts)
	redispatches int   // failure-driven re-dispatches consumed
	fwds         int   // hub-tree overflow forwards consumed (tree.go)
	gen          int   // bumped per booking and per re-dispatch
	done         bool
	// pre: the batch's arrival, and then its latest deadline, precedes
	// the liveness sweep at its instant (fault.go).
	pre bool
}

// tenantCounts is one tenant's batch ledger row: terminal states plus
// the failure-driven re-dispatches its batches consumed on the way
// there. Untenanted batches count under the "" row.
type tenantCounts struct {
	submitted, completed, shed, deadLettered int
	redispatches                             int
}

// row returns (creating on first use) a tenant's ledger row in m.
func row(m map[string]*tenantCounts, tenant string) *tenantCounts {
	c := m[tenant]
	if c == nil {
		c = &tenantCounts{}
		m[tenant] = c
	}
	return c
}

// PoissonArrivals draws n arrival times whose inter-arrival gaps are
// exponentially distributed with the given mean — a Poisson-style open
// arrival process. Deterministic for a seeded rng.
func PoissonArrivals(rng *rand.Rand, n int, meanGap event.Time) []event.Time {
	times := make([]event.Time, n)
	var at float64
	for i := range times {
		at += rng.ExpFloat64() * float64(meanGap)
		times[i] = event.Time(at)
	}
	return times
}

// NodeSummary is one node's slice of a fleet run.
type NodeSummary struct {
	Name        string
	Batches     int        // batches completed
	Utilization float64    // busy time / fleet makespan
	BusyTime    event.Time // sum of batch execution spans
	MeanLatMs   float64
	Health      string // end-of-run health (failure-aware mode)
	Failures    int    // exec errors + timeouts attributed to the node
	Crashes     int    // injected crash events
	ArraysLost  int    // arrays still lost at end of run
	// LostByTarget breaks ArraysLost down per layer, indexed by
	// isa.Target — the array-granular view of the node's degradation.
	LostByTarget [isa.NumTargets]int
}

// TenantSummary is one tenant's slice of a fleet run: batch terminal
// states plus the latency digest of its completed batches.
type TenantSummary struct {
	Tenant       string
	Submitted    int
	Completed    int
	Shed         int
	DeadLettered int
	// Redispatches counts failure-driven re-dispatches consumed by this
	// tenant's batches — not a terminal state, so it is excluded from
	// Accounted, but it is the per-tenant blast radius of a fault plan.
	Redispatches int
	MeanLatMs    float64
	P99LatMs     float64
}

// Accounted sums the tenant's terminal states; conservation demands it
// equal Submitted on every drained run.
func (t TenantSummary) Accounted() int { return t.Completed + t.Shed + t.DeadLettered }

// Summary aggregates a fleet run: admission counters, fleet-wide
// latency and queue-delay percentiles, and per-node utilization.
type Summary struct {
	Policy       string
	Submitted    int
	Completed    int
	Shed         int
	Retries      int
	Redispatches int
	DeadLettered int
	ExecErrors   int
	Timeouts     int
	// Fabric-failure counters (hub tree under a fault plan; zero — and
	// unrendered — everywhere else). HubCrashes counts hub freeze
	// windows applied, Takeovers counts ring-successor adoptions of a
	// suspected region's nodes, Rehomed counts messages (completion
	// relays, mid-run injections) re-homed away from a frozen region 0.
	HubCrashes int
	Takeovers  int
	Rehomed    int
	Makespan   event.Time
	MeanLatMs  float64
	P50LatMs   float64
	P90LatMs   float64
	P99LatMs   float64
	P50QueMs   float64
	P99QueMs   float64
	Nodes      []NodeSummary
	// Tenants holds one row per tenant (sorted by name) when the run
	// carried tenant-tagged batches; empty otherwise.
	Tenants []TenantSummary
}

// Accounted sums the terminal states; conservation demands it equal
// Submitted on every drained run (each batch completed, shed, or
// dead-lettered, never more than one of them).
func (s Summary) Accounted() int { return s.Completed + s.Shed + s.DeadLettered }

// String renders the fleet summary, one headline plus one line per node.
func (s Summary) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cluster(policy=%s nodes=%d submitted=%d completed=%d shed=%d retries=%d makespan=%.3fms\n",
		s.Policy, len(s.Nodes), s.Submitted, s.Completed, s.Shed, s.Retries, s.Makespan.Millis())
	fmt.Fprintf(&sb, "  latency mean=%.3f p50=%.3f p90=%.3f p99=%.3fms queue p50=%.3f p99=%.3fms\n",
		s.MeanLatMs, s.P50LatMs, s.P90LatMs, s.P99LatMs, s.P50QueMs, s.P99QueMs)
	if s.Redispatches+s.DeadLettered+s.ExecErrors+s.Timeouts > 0 {
		fmt.Fprintf(&sb, "  faults: redispatch=%d dead-letter=%d exec-err=%d timeouts=%d\n",
			s.Redispatches, s.DeadLettered, s.ExecErrors, s.Timeouts)
	}
	if s.HubCrashes+s.Takeovers+s.Rehomed > 0 {
		fmt.Fprintf(&sb, "  fabric: hub-crash=%d takeover=%d rehomed=%d\n",
			s.HubCrashes, s.Takeovers, s.Rehomed)
	}
	for _, n := range s.Nodes {
		fmt.Fprintf(&sb, "  %-12s batches=%-4d util=%.2f mean-lat=%.3fms", n.Name, n.Batches, n.Utilization, n.MeanLatMs)
		if n.Health != "" {
			fmt.Fprintf(&sb, " health=%s failures=%d crashes=%d lost=%d", n.Health, n.Failures, n.Crashes, n.ArraysLost)
		}
		if n.ArraysLost > 0 {
			sb.WriteString(" lost-by[")
			first := true
			for _, t := range isa.Targets {
				if c := n.LostByTarget[int(t)]; c > 0 {
					if !first {
						sb.WriteString(" ")
					}
					fmt.Fprintf(&sb, "%s=%d", t, c)
					first = false
				}
			}
			sb.WriteString("]")
		}
		sb.WriteString("\n")
	}
	for _, t := range s.Tenants {
		fmt.Fprintf(&sb, "  tenant %-6s submitted=%-4d completed=%-4d shed=%d dead=%d mean-lat=%.3fms p99=%.3fms",
			t.Tenant, t.Submitted, t.Completed, t.Shed, t.DeadLettered, t.MeanLatMs, t.P99LatMs)
		if t.Redispatches > 0 {
			fmt.Fprintf(&sb, " redisp=%d", t.Redispatches)
		}
		sb.WriteString("\n")
	}
	sb.WriteString(")")
	return sb.String()
}

// lostRollup snapshots a system's per-target lost-array counts for the
// fleet summary.
func lostRollup(sys *sched.System) (lost [isa.NumTargets]int) {
	for _, t := range sys.Targets() {
		lost[t] = sys.Lost(t)
	}
	return lost
}

// summarize folds the home nodes' execution records (in s.Nodes order)
// into s — makespan, utilization, fleet-wide latency/queue percentiles
// — and the fleet ledger into the admission totals and the per-tenant
// rows. s arrives with the policy name, the remaining fleet counters and
// the node rows filled in.
func summarize(s Summary, rts []runtime.Summary, tenants map[string]*tenantCounts) Summary {
	var lats, queues []float64
	tenantLats := map[string][]float64{}
	for _, rt := range rts {
		if rt.Makespan > s.Makespan {
			s.Makespan = rt.Makespan
		}
		for _, res := range rt.Results {
			lats = append(lats, res.Latency().Millis())
			queues = append(queues, res.QueueDelay().Millis())
			if res.Tenant != "" {
				tenantLats[res.Tenant] = append(tenantLats[res.Tenant], res.Latency().Millis())
			}
		}
	}
	for i := range s.Nodes {
		if s.Makespan > 0 {
			s.Nodes[i].Utilization = s.Nodes[i].BusyTime.Seconds() / s.Makespan.Seconds()
		}
	}
	lat, que := stats.SummarizeLatency(lats), stats.SummarizeLatency(queues)
	s.MeanLatMs = lat.Mean
	s.P50LatMs = lat.P50
	s.P90LatMs = lat.P90
	s.P99LatMs = lat.P99
	s.P50QueMs = que.P50
	s.P99QueMs = que.P99
	var names []string
	for name, c := range tenants {
		s.Submitted += c.submitted
		s.Completed += c.completed
		s.Shed += c.shed
		s.DeadLettered += c.deadLettered
		s.Redispatches += c.redispatches
		if name != "" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		c := tenants[name]
		tl := stats.SummarizeLatency(tenantLats[name])
		s.Tenants = append(s.Tenants, TenantSummary{
			Tenant: name, Submitted: c.submitted, Completed: c.completed,
			Shed: c.shed, DeadLettered: c.deadLettered,
			Redispatches: c.redispatches,
			MeanLatMs:    tl.Mean, P99LatMs: tl.P99,
		})
	}
	return s
}
