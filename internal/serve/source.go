package serve

import (
	"fmt"
	"math/rand"

	"mlimp/internal/event"
	"mlimp/internal/fixed"
	"mlimp/internal/gnn"
	"mlimp/internal/graph"
	"mlimp/internal/isa"
	"mlimp/internal/predict"
	"mlimp/internal/sched"
	"mlimp/internal/workload"
)

// bestTarget picks the lowest-model-time eligible layer at unit
// allocation — the batch-former compatibility key of a request.
func bestTarget(sys *sched.System, j *sched.Job) isa.Target {
	var best isa.Target
	bestT := event.Time(-1)
	for _, t := range sys.Targets() {
		p, ok := j.Est.Get(t)
		if !ok {
			continue
		}
		mt := sys.ModelTime(j, t, p.RepUnit)
		if bestT < 0 || mt < bestT {
			bestT, best = mt, t
		}
	}
	return best
}

// GNNSource turns arrival traces into GNN aggregation requests: each
// request is a 2-hop sampled subgraph of one mother graph whose SpMM
// job is built at seal time with the then-current predictor. The class
// of a request (its batching key) is its preferred target under the
// generation-time predictor, so requests that pull toward the same
// memory batch together.
type GNNSource struct {
	Sys       *sched.System
	Predictor *predict.MLP
	Betas     map[isa.Target]map[int]float64
	F         int
	// Format is the fixed-point operand format request jobs compute in
	// (zero value: the full-width default). Narrow formats shrink each
	// job's cycle and byte profile proportionally — the serving face of
	// the per-layer precision co-design.
	Format fixed.Format

	g       *graph.Graph
	sampler *graph.Sampler
}

// NewGNNSource generates the mother graph, builds the sampler, and fits
// the scale-model betas on a representative subgraph.
func NewGNNSource(rng *rand.Rand, d graph.Dataset, f int, pred *predict.MLP, sys *sched.System) *GNNSource {
	g := d.Generate(rng)
	s := graph.NewSampler(rng, g, 2, 0)
	sample := s.Sample(rng.Intn(g.N))
	return &GNNSource{
		Sys: sys, Predictor: pred,
		Betas: gnn.FitBetas(sample.Adj, []int{f}, sys),
		F:     f, g: g, sampler: s,
	}
}

// Requests pre-generates one request per arrival: subgraph sampling and
// class assignment happen here, before the simulation, with the initial
// predictor — the determinism contract of the front end.
func (s *GNNSource) Requests(rng *rand.Rand, arrivals []event.Time, slo event.Time) []*Request {
	reqs := make([]*Request, len(arrivals))
	for i, at := range arrivals {
		sg := s.sampler.Sample(rng.Intn(s.g.N))
		r := &Request{ID: i, Arrival: at, Deadline: at + slo, Adj: sg.Adj, F: s.F}
		r.Class = bestTarget(s.Sys, s.BuildJob(r)).String()
		reqs[i] = r
	}
	return reqs
}

// BuildJob builds the aggregation job of one request with the current
// predictor state — Config.BuildJob for GNN serving.
func (s *GNNSource) BuildJob(r *Request) *sched.Job {
	qf := s.Format
	if qf.Bits == 0 {
		qf = fixed.DefaultFormat
	}
	return gnn.SpMMJobAt(r.ID, fmt.Sprintf("req-%d", r.ID), r.Adj, r.F, 0, qf, s.Predictor, s.Sys, s.Betas)
}

// AppSource draws Table II application jobs as requests. App costs are
// deterministic static analysis, so jobs are prebuilt at generation and
// BuildJob just returns them — the predictor-free serving baseline.
type AppSource struct {
	Sys  *sched.System
	pool *workload.RequestPool
}

// NewAppSource analyses the application suite once.
func NewAppSource(sys *sched.System) *AppSource {
	return &AppSource{Sys: sys, pool: workload.NewRequestPool()}
}

// Requests pre-generates one uniformly drawn app job per arrival. The
// requests and their jobs each live in one slab, and the class is worked
// out once per app: every job of an app shares its Est, and bestTarget
// reads nothing else of the job.
func (s *AppSource) Requests(rng *rand.Rand, arrivals []event.Time, slo event.Time) []*Request {
	reqs := make([]*Request, len(arrivals))
	slab := make([]Request, len(arrivals))
	jobs := make([]sched.Job, len(arrivals))
	class := map[*sched.Estimates]string{}
	for i, at := range arrivals {
		j := &jobs[i]
		s.pool.DrawInto(rng, i, j)
		c, ok := class[j.Est]
		if !ok {
			c = bestTarget(s.Sys, j).String()
			class[j.Est] = c
		}
		slab[i] = Request{ID: i, Arrival: at, Deadline: at + slo, Job: j, Class: c}
		reqs[i] = &slab[i]
	}
	return reqs
}

// BuildJob implements Config.BuildJob for app requests.
func (s *AppSource) BuildJob(r *Request) *sched.Job { return r.Job }
