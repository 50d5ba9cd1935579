package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"mlimp/internal/cluster"
	"mlimp/internal/event"
	"mlimp/internal/isa"
	"mlimp/internal/sched"
	"mlimp/internal/serve"
	"mlimp/internal/workload"
)

func init() {
	register("multitenant", "Extension: multi-tenant fleet serving — tenant x packing sweep with array-isolation audit", multiTenantExp)
}

// Sweep configuration, overridable from the CLI via SetMultiTenant.
var (
	mtTenantCounts = []int{2, 4}
	mtPackings     = sched.PackingNames()
)

// SetMultiTenant narrows the multitenant sweep: tenants lists the tenant
// counts to run (nil keeps the default; each must be at least 1, which
// the mlimp-bench -tenants parser enforces), packing names one policy
// or "all". Rejects unknown packing names.
func SetMultiTenant(tenants []int, packing string) error {
	if packing != "" && packing != "all" {
		if _, ok := sched.PackingByName(packing); !ok {
			return fmt.Errorf("multitenant: unknown packing %q (have %s, all)",
				packing, strings.Join(sched.PackingNames(), ", "))
		}
		mtPackings = []string{packing}
	}
	if len(tenants) > 0 {
		mtTenantCounts = tenants
	}
	return nil
}

// mtSpan is one placed allocation in fleet time: which tenant held which
// array IDs of one node's layer, over which interval.
type mtSpan struct {
	tenant     string
	ids        sched.ArraySet
	start, end event.Time
}

// mtAudit collects completed-batch placements keyed by node/target so
// the experiment can replay the hard isolation invariant across a whole
// serving run: any two time-overlapping assignments from different
// tenants on one layer must hold disjoint array IDs. The observe hook
// runs inside the dispatcher's settlement (single hub goroutine), so no
// locking is needed.
type mtAudit struct {
	spans map[string][]mtSpan
}

func newMTAudit() *mtAudit { return &mtAudit{spans: map[string][]mtSpan{}} }

func (a *mtAudit) observe(info cluster.DoneInfo) {
	if info.Outcome != cluster.OutcomeCompleted {
		return
	}
	for _, as := range info.Result.Assignments {
		key := info.Node + "/" + as.Target.String()
		a.spans[key] = append(a.spans[key], mtSpan{
			tenant: as.Tenant,
			ids:    as.ArrayIDs,
			start:  info.Result.Start + as.Start,
			end:    info.Result.Start + as.End,
		})
	}
}

// violations counts cross-tenant pairs sharing a layer and an instant;
// any pair with intersecting IDs is an isolation breach.
func (a *mtAudit) violations() (checked, bad int) {
	for _, list := range a.spans {
		for i, s := range list {
			for _, u := range list[i+1:] {
				if s.tenant == u.tenant {
					continue
				}
				checked++
				if s.start < u.end && u.start < s.end && s.ids.Intersects(u.ids) {
					bad++
				}
			}
		}
	}
	return checked, bad
}

// auditOffline replays the same invariant over one scheduler result.
func auditOffline(res *sched.Result) (checked, bad int) {
	for i, s := range res.Assignments {
		for _, u := range res.Assignments[i+1:] {
			if s.Target != u.Target || s.Tenant == u.Tenant {
				continue
			}
			checked++
			if s.Start < u.End && u.Start < s.End && s.ArrayIDs.Intersects(u.ArrayIDs) {
				bad++
			}
		}
	}
	return checked, bad
}

// multiTenantServingCell drives the open-loop front end over the
// heterogeneous fleet with the request trace tagged round-robin across
// tenants and every node packing arrays under the given policy.
func multiTenantServingCell(tenants int, packing sched.Packing, workers int) (serve.Summary, *mtAudit) {
	const seed = 701
	sys := sched.NewSystem(isa.Targets...)
	src := serve.NewAppSource(sys)
	rng := rand.New(rand.NewSource(seed))
	arr := serve.Trace(rng, serve.Poisson{MeanGap: 600 * event.Microsecond}, 0, 50*event.Millisecond)
	reqs := src.Requests(rng, arr, 20*event.Millisecond)
	serve.AssignTenants(reqs, tenants)
	cfgs := clusterFleet()
	for i := range cfgs {
		cfgs[i].Packing = packing
	}
	d := cluster.NewShardedDispatcher(cluster.NewPredictedCost(), cluster.Admission{MaxRetries: 2},
		shardCfg(workers), cfgs...)
	d.RecordAssignments()
	audit := newMTAudit()
	fe, err := serve.New(d, serve.Config{
		Requests: reqs, Budget: 500 * event.Microsecond, BatchMax: 4,
		PredictorAdmission: true, BuildJob: src.BuildJob, Seed: seed,
		OnDone: audit.observe,
	})
	if err != nil {
		panic(err)
	}
	return fe.Run(), audit
}

// multiTenantExp sweeps tenant count x packing policy twice: an offline
// mixed-tenant batch on one node (where cross-tenant time overlap is
// dense, so the isolation audit is non-trivial), then the open-loop
// serving front end on the sharded fleet with per-tenant SLO accounting.
// Three invariants are asserted in the artefact: the isolation
// invariant (no array held by two tenants at an overlapping instant),
// per-tenant request conservation, and byte-identical serving artefacts
// across sim worker counts 1/2/4/8.
func multiTenantExp() *Result {
	// Offline: one dense batch through the Global scheduler per packing.
	t1 := &table{header: []string{"tenants", "packing", "makespan(ms)", "fair-share", "pairs", "iso"}}
	isoOK := true
	for _, k := range mtTenantCounts {
		for _, pname := range mtPackings {
			p, _ := sched.PackingByName(pname)
			rng := rand.New(rand.NewSource(700))
			sys := sched.NewSystem(isa.Targets...)
			sys.Packing = p
			jobs := workload.AssignTenants(workload.RandomJobs(rng, 24, 0), k)
			res := sched.NewGlobal().Schedule(sys, jobs)
			busy := map[string]event.Time{}
			for _, a := range res.Assignments {
				busy[a.Tenant] += a.End - a.Start
			}
			var minB, maxB event.Time
			for _, b := range busy {
				if minB == 0 || b < minB {
					minB = b
				}
				if b > maxB {
					maxB = b
				}
			}
			checked, bad := auditOffline(res)
			if bad > 0 {
				isoOK = false
			}
			t1.add(fmt.Sprint(k), pname, f3(res.Makespan.Millis()),
				f2(float64(minB)/float64(maxB)), fmt.Sprint(checked), fmt.Sprint(bad))
		}
	}

	// Serving: the sharded fleet under the same sweep, with per-tenant
	// goodput and the audit replayed over every completed placement.
	t2 := &table{header: []string{"tenants", "packing", "req", "done", "met", "goodput(/s)", "p99(ms)", "fair-ratio", "pairs", "iso"}}
	conserved := true
	for _, k := range mtTenantCounts {
		for _, pname := range mtPackings {
			p, _ := sched.PackingByName(pname)
			s, audit := multiTenantServingCell(k, p, simWorkers)
			if s.Accounted() != s.Requests {
				conserved = false
			}
			var minG, maxG float64
			for _, ts := range s.Tenants {
				if ts.Accounted() != ts.Requests {
					conserved = false
				}
				if minG == 0 || ts.SLO.Goodput < minG {
					minG = ts.SLO.Goodput
				}
				if ts.SLO.Goodput > maxG {
					maxG = ts.SLO.Goodput
				}
			}
			fair := 0.0
			if maxG > 0 {
				fair = minG / maxG
			}
			checked, bad := audit.violations()
			if bad > 0 {
				isoOK = false
			}
			t2.add(fmt.Sprint(k), pname, fmt.Sprint(s.Requests), fmt.Sprint(s.Completed),
				fmt.Sprint(s.SLO.Met), f2(s.SLO.Goodput), f3(s.SLO.Latency.P99),
				f2(fair), fmt.Sprint(checked), fmt.Sprint(bad))
		}
	}

	// Parallel-simulation equivalence: the densest cell must produce a
	// byte-identical artefact at every worker count.
	equiv := true
	kMax := mtTenantCounts[len(mtTenantCounts)-1]
	pEq, _ := sched.PackingByName(mtPackings[len(mtPackings)-1])
	var ref string
	for _, w := range []int{1, 2, 4, 8} {
		s, _ := multiTenantServingCell(kMax, pEq, w)
		if ref == "" {
			ref = s.String()
		} else if s.String() != ref {
			equiv = false
		}
	}

	text := "offline mixed-tenant batch (Global scheduler, one full node):\n" + t1.String() +
		"\nserving sweep (open-loop front end, sharded fleet):\n" + t2.String() +
		fmt.Sprintf("isolation invariant (no array held by two tenants at an overlapping instant): %v\n", isoOK) +
		fmt.Sprintf("per-tenant conservation (completed+shed+dead == requests) in every cell: %v\n", conserved) +
		fmt.Sprintf("serving artefact byte-identical at sim workers 1/2/4/8: %v\n", equiv)
	return &Result{ID: "multitenant", Title: "multi-tenant fleet serving", Text: text}
}
