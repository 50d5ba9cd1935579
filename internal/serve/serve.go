package serve

import (
	"fmt"
	"math"
	"math/rand"

	"mlimp/internal/cluster"
	"mlimp/internal/event"
	"mlimp/internal/predict"
	"mlimp/internal/runtime"
	"mlimp/internal/sched"
	"mlimp/internal/stats"
	"mlimp/internal/tensor"
)

// Request is one inference request flowing through the front end.
type Request struct {
	ID       int
	Arrival  event.Time
	Deadline event.Time // absolute SLO deadline
	// Class is the batch-former compatibility key: requests of one class
	// may share a batch (by convention the preferred target layer, so a
	// batch's jobs pull toward one memory and the node scheduler is not
	// forced to split every batch three ways).
	Class string
	// Tenant, when non-empty, names the tenant this request belongs to.
	// Tenants never share a batch (the batch former folds the tenant into
	// the compatibility key), so every batch reaching a node scheduler is
	// tenant-pure and the scheduler can hold tenants on disjoint arrays.
	Tenant string

	// GNN payload: the sampled subgraph and feature width whose
	// aggregation SpMM this request executes. App-source requests leave
	// Adj nil and carry a prebuilt Job instead.
	Adj *tensor.CSR
	F   int
	Job *sched.Job
}

// Drift-detector EWMA weight over per-batch log prediction errors.
const driftAlpha = 0.2

// Defaults for the optional knobs of Config. DefaultObsWindow,
// DefaultDriftThreshold and DefaultRetrainLR are fixed parameters of the
// online retraining loop (see Config.RetrainEvery).
const (
	DefaultBatchMax       = 8
	DefaultObsWindow      = 256
	DefaultDriftThreshold = 0.35
	DefaultRetrainEpochs  = 40
	DefaultRetrainLR      = 1e-3
)

// Config parameterises a front end.
type Config struct {
	// Requests is the pre-generated arrival trace, sorted by Arrival.
	// Pre-generation is the determinism contract: request randomness is
	// drawn before the simulation, never from its interleaving.
	Requests []*Request

	// Budget is the batch-former latency budget: a class's first queued
	// request waits at most this long before its batch dispatches.
	Budget event.Time
	// BatchMax dispatches a class early once it gathers this many
	// requests (budget-expiry or batch-full, whichever first).
	// 0 means DefaultBatchMax.
	BatchMax int

	// PredictorAdmission sheds requests at seal time when the online
	// cost model predicts their batch would complete past their
	// deadline. Off = predictor-blind: identical batches and routing,
	// but saturation sheds at the dispatcher's admission bound instead.
	PredictorAdmission bool

	// BuildJob builds the scheduler job of one request at seal time —
	// with the *current* predictor state, so online retraining reaches
	// every later estimate. The returned job's ID must equal r.ID (the
	// front end joins observed assignments back to requests by ID).
	BuildJob func(r *Request) *sched.Job

	// Online predictor loop; leave Predictor or Mirror nil to disable.
	Predictor *predict.MLP  // the model Refit fine-tunes
	Mirror    *sched.System // cost-model mirror for span inversion
	// RetrainEvery refits after this many completed batches (0: only on
	// drift). A refit also fires as soon as the EWMA of
	// log(actual/predicted) batch latency exceeds DefaultDriftThreshold.
	// Each refit runs RetrainEpochs (0 means DefaultRetrainEpochs) at
	// learning rate DefaultRetrainLR over the last DefaultObsWindow
	// observations.
	RetrainEvery  int
	RetrainEpochs int
	// Seed drives the retraining rng (shuffle order inside Refit).
	Seed int64

	// OnDone, if set, observes every batch terminal state after the
	// front end's own settlement — the audit hook experiments use to
	// inspect per-job assignments (DoneInfo.Result.Assignments, with
	// RecordAssignments armed on the dispatcher).
	OnDone func(cluster.DoneInfo)
}

func (c *Config) batchMax() int {
	if c.BatchMax > 0 {
		return c.BatchMax
	}
	return DefaultBatchMax
}

func (c *Config) retrainEpochs() int {
	if c.RetrainEpochs > 0 {
		return c.RetrainEpochs
	}
	return DefaultRetrainEpochs
}

// classQueue is one class's forming batch, the ledger row of its
// tenant, and its budget-timer generation (bumped at every seal to
// disarm the pending expiry). Class keys fold in the tenant (classKey),
// so one row serves the whole queue.
type classQueue struct {
	reqs     []*Request
	row      *tenantTally
	timerGen int
}

// tenantTally is one tenant's request ledger row: offered requests,
// their terminal states, and how many met their deadline. Untenanted
// requests count under the "" row.
type tenantTally struct {
	requests, shedAdmission, shedOverload, deadLettered, completed, met int
}

// batchRec joins an in-flight batch back to its requests, its tenant's
// ledger row, and the admission-time prediction.
type batchRec struct {
	reqs        []*Request
	row         *tenantTally
	sealedAt    event.Time
	predictedAt event.Time
	predictedOK bool
}

// FrontEnd is the open-loop serving layer over a sharded fleet. All of
// its state is hub-shard state: arrivals, seals, completions, and
// retraining all execute inside hub events, which is what makes serving
// runs byte-identical across worker counts.
type FrontEnd struct {
	d   *cluster.ShardedDispatcher
	cfg Config
	rng *rand.Rand

	classes   map[string]*classQueue
	batches   map[int]*batchRec
	nextBatch int

	sealed     int
	latencies  []float64 // completion order
	latTenants []string  // parallel to latencies; "" when untenanted
	// tenants is the request ledger, one row per tenant including "";
	// fleet totals are sums over the rows.
	tenants map[string]*tenantTally

	obs          []predict.Observation
	predErrSum   float64
	predErrN     int
	ewma         float64
	drifts       int
	retrains     int
	sinceRetrain int
}

// New builds a front end over the fleet and registers it: arrival
// events are seeded into the hub engine, the dispatcher's horizon is
// extended to the last arrival (so failure detection stays armed across
// idle gaps), and the terminal-state observer is installed. Call before
// d.Run (or use fe.Run, which wraps it).
func New(d *cluster.ShardedDispatcher, cfg Config) (*FrontEnd, error) {
	if d == nil {
		return nil, fmt.Errorf("serve: nil dispatcher")
	}
	if cfg.Budget <= 0 {
		return nil, fmt.Errorf("serve: batch budget must be positive")
	}
	if cfg.BuildJob == nil {
		return nil, fmt.Errorf("serve: nil BuildJob")
	}
	if len(cfg.Requests) == 0 {
		return nil, fmt.Errorf("serve: empty request trace")
	}
	fe := &FrontEnd{
		d:       d,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		classes: map[string]*classQueue{},
		batches: map[int]*batchRec{},
		tenants: map[string]*tenantTally{},
	}
	eng := d.HubEngine()
	var last event.Time
	for _, r := range cfg.Requests {
		r := r
		eng.At(r.Arrival, func() { fe.arrive(r) })
		if r.Arrival > last {
			last = r.Arrival
		}
	}
	d.ExtendHorizon(last)
	if fe.retraining() {
		d.RecordAssignments()
	}
	d.OnDone(fe.onDone)
	return fe, nil
}

// retraining reports whether the online predictor loop is wired.
func (fe *FrontEnd) retraining() bool {
	return fe.cfg.Predictor != nil && fe.cfg.Mirror != nil
}

// classKey folds the tenant into the batch-former compatibility key:
// requests of one class batch together only within one tenant, so
// every sealed batch is tenant-pure.
func classKey(r *Request) string {
	if r.Tenant == "" {
		return r.Class
	}
	return r.Class + "@" + r.Tenant
}

// arrive queues one request into its class and applies the dispatch
// rule: seal on batch-full immediately, otherwise arm the budget timer
// when the request opens a fresh batch.
func (fe *FrontEnd) arrive(r *Request) {
	key := classKey(r)
	q := fe.classes[key]
	if q == nil {
		row := fe.tenants[r.Tenant]
		if row == nil {
			row = &tenantTally{}
			fe.tenants[r.Tenant] = row
		}
		q = &classQueue{row: row}
		fe.classes[key] = q
	}
	q.row.requests++
	q.reqs = append(q.reqs, r)
	if len(q.reqs) >= fe.cfg.batchMax() {
		q.timerGen++ // disarm the pending budget timer
		fe.seal(key)
		return
	}
	if len(q.reqs) == 1 {
		gen := q.timerGen
		fe.d.HubEngine().After(fe.cfg.Budget, func() {
			if q.timerGen != gen || len(q.reqs) == 0 {
				return // batch-full seal got there first
			}
			q.timerGen++
			fe.seal(key)
		})
	}
}

// seal closes one class's forming batch: jobs are built with the
// current (possibly retrained) predictor, the batch cost is predicted
// against the fleet's booked estimates, doomed requests are shed when
// predictor admission is on, and the survivors are injected.
func (fe *FrontEnd) seal(class string) {
	q := fe.classes[class]
	reqs := q.reqs
	q.reqs = nil
	now := fe.d.HubEngine().Now()
	jobs := make([]*sched.Job, len(reqs))
	for i, r := range reqs {
		jobs[i] = fe.cfg.BuildJob(r)
		jobs[i].Tenant = r.Tenant
	}
	predictedAt, predictedOK := fe.d.PredictedCompletion(jobs)
	if fe.cfg.PredictorAdmission && predictedOK {
		// One shedding pass: dropping requests only shrinks the batch,
		// which speeds it up, so survivors of the full-batch prediction
		// remain survivors of the shrunken one.
		var keptR []*Request
		var keptJ []*sched.Job
		for i, r := range reqs {
			if r.Deadline < predictedAt {
				q.row.shedAdmission++
				continue
			}
			keptR = append(keptR, r)
			keptJ = append(keptJ, jobs[i])
		}
		reqs, jobs = keptR, keptJ
	}
	if len(reqs) == 0 {
		return
	}
	id := fe.nextBatch
	fe.nextBatch++
	fe.sealed++
	fe.batches[id] = &batchRec{
		reqs: reqs, row: q.row, sealedAt: now,
		predictedAt: predictedAt, predictedOK: predictedOK,
	}
	if err := fe.d.Inject(&runtime.Batch{ID: id, Arrival: now, Tenant: reqs[0].Tenant, Jobs: jobs}); err != nil {
		panic("serve: " + err.Error()) // IDs are unique, jobs non-empty
	}
}

// onDone settles one batch's requests and feeds the online predictor
// loop: observed spans become training observations, prediction error
// updates the drift EWMA, and drift or the periodic schedule triggers a
// refit.
func (fe *FrontEnd) onDone(info cluster.DoneInfo) {
	rec := fe.batches[info.Batch.ID]
	if rec == nil {
		return
	}
	if fe.cfg.OnDone != nil {
		defer fe.cfg.OnDone(info)
	}
	delete(fe.batches, info.Batch.ID)
	switch info.Outcome {
	case cluster.OutcomeShed:
		rec.row.shedOverload += len(rec.reqs)
		return
	case cluster.OutcomeDeadLettered:
		rec.row.deadLettered += len(rec.reqs)
		return
	}
	res := info.Result
	rec.row.completed += len(rec.reqs)
	for _, r := range rec.reqs {
		fe.latencies = append(fe.latencies, (res.Completed - r.Arrival).Millis())
		fe.latTenants = append(fe.latTenants, r.Tenant)
		if res.Completed <= r.Deadline {
			rec.row.met++
		}
	}
	if rec.predictedOK {
		actual := float64(res.Completed - rec.sealedAt)
		predicted := float64(rec.predictedAt - rec.sealedAt)
		if actual > 0 && predicted > 0 {
			e := math.Log(actual / predicted)
			fe.predErrSum += math.Abs(e)
			fe.predErrN++
			fe.ewma = (1-driftAlpha)*fe.ewma + driftAlpha*e
		}
	}
	if !fe.retraining() {
		return
	}
	fe.harvest(rec, res)
	fe.sinceRetrain++
	drifted := math.Abs(fe.ewma) > DefaultDriftThreshold
	if drifted || (fe.cfg.RetrainEvery > 0 && fe.sinceRetrain >= fe.cfg.RetrainEvery) {
		if drifted {
			fe.drifts++
		}
		fe.retrain()
	}
}

// harvest inverts each completed GNN job's observed span into implied
// unit cycles and appends it as a ready-to-train observation, keeping a
// bounded window.
func (fe *FrontEnd) harvest(rec *batchRec, res runtime.BatchResult) {
	for _, a := range res.Assignments {
		var r *Request
		for _, rr := range rec.reqs {
			if rr.ID == a.Job.ID {
				r = rr
				break
			}
		}
		if r == nil || r.Adj == nil {
			continue
		}
		p, ok := a.Job.Est.Get(a.Target)
		if !ok {
			continue
		}
		cyc := fe.cfg.Mirror.ObservedUnitCycles(p, a.Target, a.Arrays, a.End-a.Start)
		fe.obs = append(fe.obs, fe.cfg.Predictor.Observe(r.Adj, r.F, a.Target, cyc))
	}
	if len(fe.obs) > DefaultObsWindow {
		fe.obs = append(fe.obs[:0], fe.obs[len(fe.obs)-DefaultObsWindow:]...)
	}
}

// retrain fine-tunes the predictor on the observation window and resets
// the drift state.
func (fe *FrontEnd) retrain() {
	if len(fe.obs) == 0 {
		return
	}
	fe.cfg.Predictor.Refit(fe.rng, fe.obs, fe.cfg.retrainEpochs(), DefaultRetrainLR)
	fe.retrains++
	fe.sinceRetrain = 0
	fe.ewma = 0
}

// Summary is one serving run's digest: the fleet summary plus the
// request-level SLO accounting the front end alone can see.
type Summary struct {
	Cluster cluster.Summary

	Requests      int // offered requests
	Sealed        int // batches injected
	ShedAdmission int // requests shed by predictor admission
	ShedOverload  int // requests in batches shed by the dispatcher
	DeadLettered  int // requests in dead-lettered batches
	Completed     int // requests completed

	SLO stats.SLOStats // goodput-under-SLO and per-request latency tail

	// Tenants holds one row per tenant (sorted by name) when the trace
	// carried tenant tags; empty otherwise.
	Tenants []TenantSummary

	MeanAbsLogErr float64 // mean |log(actual/predicted)| batch latency
	Drifts        int
	Retrains      int
}

// TenantSummary is one tenant's slice of the serving run: terminal
// states and the per-tenant goodput/latency digest.
type TenantSummary struct {
	Tenant        string
	Requests      int
	ShedAdmission int
	ShedOverload  int
	DeadLettered  int
	Completed     int
	// Redispatches counts fault-path batch re-routes charged to this
	// tenant by the dispatcher (joined from the cluster tenant rows).
	// Diagnostic only — not a terminal state, excluded from Accounted.
	Redispatches int
	SLO          stats.SLOStats
}

// Accounted sums the tenant's request terminal states; conservation
// demands it equal Requests on every drained run.
func (t TenantSummary) Accounted() int {
	return t.Completed + t.ShedAdmission + t.ShedOverload + t.DeadLettered
}

// Accounted sums the request terminal states; conservation demands it
// equal Requests on every drained run.
func (s Summary) Accounted() int {
	return s.Completed + s.ShedAdmission + s.ShedOverload + s.DeadLettered
}

// String renders the serving digest deterministically (the worker-count
// equivalence artefact). Tenant rows appear only on tenant-tagged runs,
// so untenanted artefacts are unchanged.
func (s Summary) String() string {
	head := fmt.Sprintf(
		"serve(requests=%d sealed=%d completed=%d met=%d goodput=%.2f/s metfrac=%.3f\n"+
			"  shed[admission=%d overload=%d dead-letter=%d]\n"+
			"  request-latency mean=%.3f p50=%.3f p90=%.3f p99=%.3fms\n"+
			"  predictor abs-log-err=%.4f drifts=%d retrains=%d)",
		s.Requests, s.Sealed, s.Completed, s.SLO.Met, s.SLO.Goodput, s.SLO.MetFrac(),
		s.ShedAdmission, s.ShedOverload, s.DeadLettered,
		s.SLO.Latency.Mean, s.SLO.Latency.P50, s.SLO.Latency.P90, s.SLO.Latency.P99,
		s.MeanAbsLogErr, s.Drifts, s.Retrains)
	for _, t := range s.Tenants {
		head += fmt.Sprintf(
			"\n  tenant %-6s req=%-5d done=%-5d met=%-5d goodput=%.2f/s p99=%.3fms shed[adm=%d over=%d dead=%d]",
			t.Tenant, t.Requests, t.Completed, t.SLO.Met, t.SLO.Goodput, t.SLO.Latency.P99,
			t.ShedAdmission, t.ShedOverload, t.DeadLettered)
		if t.Redispatches > 0 {
			head += fmt.Sprintf(" redisp=%d", t.Redispatches)
		}
	}
	return head + "\n" + s.Cluster.String()
}

// Run drains the fleet and assembles the serving summary.
func (fe *FrontEnd) Run() Summary {
	cs := fe.d.Run()
	s := Summary{
		Cluster:  cs,
		Sealed:   fe.sealed,
		Drifts:   fe.drifts,
		Retrains: fe.retrains,
	}
	totalMet := 0
	met := map[string]int{}
	offered := map[string]int{}
	for name, t := range fe.tenants {
		s.Requests += t.requests
		s.ShedAdmission += t.shedAdmission
		s.ShedOverload += t.shedOverload
		s.DeadLettered += t.deadLettered
		s.Completed += t.completed
		totalMet += t.met
		if name != "" {
			met[name] = t.met
			offered[name] = t.requests
		}
	}
	s.SLO = stats.SummarizeSLO(fe.latencies, totalMet, s.Requests, cs.Makespan.Seconds())
	if len(offered) > 0 {
		var keys []string
		var lats []float64
		for i, t := range fe.latTenants {
			if t != "" {
				keys = append(keys, t)
				lats = append(lats, fe.latencies[i])
			}
		}
		order, byKey := stats.GroupSLO(keys, lats, met, offered, cs.Makespan.Seconds())
		redisp := make(map[string]int, len(cs.Tenants))
		for _, ct := range cs.Tenants {
			redisp[ct.Tenant] = ct.Redispatches
		}
		for _, name := range order {
			t := fe.tenants[name]
			s.Tenants = append(s.Tenants, TenantSummary{
				Tenant:        name,
				Requests:      t.requests,
				ShedAdmission: t.shedAdmission,
				ShedOverload:  t.shedOverload,
				DeadLettered:  t.deadLettered,
				Completed:     t.completed,
				Redispatches:  redisp[name],
				SLO:           byKey[name],
			})
		}
	}
	if fe.predErrN > 0 {
		s.MeanAbsLogErr = fe.predErrSum / float64(fe.predErrN)
	}
	return s
}

// AssignTenants tags reqs round-robin across n tenants named
// "t0".."t{n-1}" — the workload-side half of a multi-tenant run. A
// non-positive n leaves the trace untenanted.
func AssignTenants(reqs []*Request, n int) {
	if n <= 0 {
		return
	}
	for i, r := range reqs {
		r.Tenant = fmt.Sprintf("t%d", i%n)
	}
}
