// Package runtime is the online execution layer of MLIMP: batches of
// jobs arrive over simulated time (the paper's runtime flow — "a call to
// a function that has been explicitly marked for in-memory processing
// triggers the MLIMP scheduler", Section III-A), queue at the system,
// and are scheduled batch by batch. Built on the deterministic event
// engine, it turns the batch-level scheduler into a serving simulation
// with arrival-to-completion latency distributions — the view an
// inference service operator cares about.
//
// A Runtime either owns a private engine (New, the standalone case) or
// runs on an injected shared engine (NewOn) so that several runtimes —
// the nodes of an internal/cluster fleet — advance in one simulated
// timeline.
//
// Misuse of the public API (nil dependencies, empty batches) returns
// errors rather than panicking: in a serving fabric these arrive from
// remote callers and must be rejectable, not fatal. Panics remain only
// for internal invariants that indicate a bug in this package.
package runtime

import (
	"errors"
	"fmt"

	"mlimp/internal/event"
	"mlimp/internal/sched"
	"mlimp/internal/stats"
)

// ErrEmptyBatch rejects a batch with no jobs.
var ErrEmptyBatch = errors.New("runtime: empty batch")

// ErrNilBatch rejects a nil batch.
var ErrNilBatch = errors.New("runtime: nil batch")

// Batch is one arriving unit of work. Tenant, when non-empty, names
// the tenant the batch belongs to; whoever builds the batch stamps the
// same tenant on each of its jobs (sched.Job.Tenant), so the scheduler
// can pack tenants onto disjoint array sets.
//
// A submitted Batch and its Jobs are immutable. After a re-dispatch the
// same batch may run on two node shards in one window, so nothing
// downstream of Submit or Inject may write to either.
type Batch struct {
	ID      int
	Arrival event.Time
	Tenant  string
	Jobs    []*sched.Job
}

// BatchResult records one batch's life cycle.
type BatchResult struct {
	ID        int
	Arrival   event.Time
	Tenant    string
	Start     event.Time // when the scheduler picked it up
	Completed event.Time
	// Assignments is the per-job placement of the batch's schedule
	// (target, allocation, and start/end offsets relative to Start).
	// Populated only when the runtime's KeepAssignments is set: the
	// serving front end inverts these observed spans into implied unit
	// cycles for online predictor retraining.
	Assignments []sched.Assignment
}

// Latency is the arrival-to-completion time.
func (b BatchResult) Latency() event.Time { return b.Completed - b.Arrival }

// QueueDelay is the time spent waiting behind earlier batches.
func (b BatchResult) QueueDelay() event.Time { return b.Start - b.Arrival }

// Runtime executes an arrival stream on one MLIMP system.
type Runtime struct {
	Sys       *sched.System
	Scheduler sched.Scheduler

	// OnStart, if set, fires when a batch leaves the queue and its jobs
	// begin executing. OnComplete fires when the batch finishes — with a
	// non-nil error when ExecError failed the batch, in which case the
	// result is not recorded. Both run inside the event engine, at the
	// simulated instant they describe — the hooks fabric layers
	// (internal/cluster) use to track occupancy without owning the run
	// loop.
	OnStart    func(b *Batch, at event.Time)
	OnComplete func(res BatchResult, err error)

	// KeepAssignments retains each batch's per-job schedule assignments
	// on its BatchResult, giving observers the per-job spans and targets
	// the batch actually executed with. Off by default: the fleet
	// benchmarks complete thousands of batches whose assignments nobody
	// reads.
	KeepAssignments bool

	// ExecError, if set, is consulted at each batch's completion instant.
	// A non-nil error marks the execution as failed: the batch's result
	// is discarded (latency stats stay clean) and the error is handed to
	// OnComplete for the fabric layer to retry, re-dispatch, or
	// dead-letter. This is the hook internal/fault plans plug into.
	ExecError func(b *Batch) error

	eng     *event.Engine
	queue   []*Batch
	busy    bool
	down    bool
	running *Batch
	gen     int // dispatch generation; invalidates in-flight completions
	results []BatchResult
}

// New builds a runtime over the given system and scheduler with a
// private event engine.
func New(sys *sched.System, scheduler sched.Scheduler) (*Runtime, error) {
	return NewOn(&event.Engine{}, sys, scheduler)
}

// NewOn builds a runtime on an injected engine, so multiple runtimes
// (and their dispatcher) share one simulated timeline. The caller that
// owns the engine decides when to run it; use Summarize afterwards.
func NewOn(eng *event.Engine, sys *sched.System, scheduler sched.Scheduler) (*Runtime, error) {
	if eng == nil {
		return nil, errors.New("runtime: nil engine")
	}
	if sys == nil {
		return nil, errors.New("runtime: nil system")
	}
	if scheduler == nil {
		return nil, errors.New("runtime: nil scheduler")
	}
	return &Runtime{Sys: sys, Scheduler: scheduler, eng: eng}, nil
}

// Engine returns the engine this runtime schedules on.
func (r *Runtime) Engine() *event.Engine { return r.eng }

// Outstanding returns the number of admitted but unfinished batches
// (queued plus the one executing).
func (r *Runtime) Outstanding() int {
	n := len(r.queue)
	if r.busy {
		n++
	}
	return n
}

// Down reports whether the runtime is halted.
func (r *Runtime) Down() bool { return r.down }

// Submit registers a batch arrival. Must be called before Run; arrivals
// may be submitted in any order.
func (r *Runtime) Submit(b *Batch) error {
	if err := checkBatch(b); err != nil {
		return err
	}
	r.eng.At(b.Arrival, func() { r.arrive(b) })
	return nil
}

// Enqueue admits a batch into the run queue at the current engine time,
// preserving b.Arrival for latency accounting. This is the entry point
// for fabric layers that manage arrivals themselves: a dispatcher holds
// the batch through admission (and possibly retries), then enqueues it
// here once a node accepts it.
func (r *Runtime) Enqueue(b *Batch) error {
	if err := checkBatch(b); err != nil {
		return err
	}
	r.arrive(b)
	return nil
}

func checkBatch(b *Batch) error {
	if b == nil {
		return ErrNilBatch
	}
	if len(b.Jobs) == 0 {
		return fmt.Errorf("%w (batch %d)", ErrEmptyBatch, b.ID)
	}
	return nil
}

func (r *Runtime) arrive(b *Batch) {
	r.queue = append(r.queue, b)
	r.pump()
}

// Halt stops the runtime at the current instant, as a node crash does:
// the executing batch loses its partial work and returns to the head of
// the queue, and nothing further starts until Resume. The already
// scheduled completion event is invalidated by the generation bump.
func (r *Runtime) Halt() {
	if r.down {
		return
	}
	r.down = true
	if r.busy {
		r.gen++
		r.queue = append([]*Batch{r.running}, r.queue...)
		r.running = nil
		r.busy = false
	}
}

// Resume restarts a halted runtime; the interrupted batch (if any) is
// re-scheduled from scratch.
func (r *Runtime) Resume() {
	if !r.down {
		return
	}
	r.down = false
	r.pump()
}

// Evict removes and returns every admitted-but-unfinished batch — the
// interrupted one first, then the queue in order — so a fabric layer
// can re-dispatch work stranded on a failed node. The runtime itself
// stays up (or down) as it was.
func (r *Runtime) Evict() []*Batch {
	var out []*Batch
	if r.busy {
		r.gen++
		out = append(out, r.running)
		r.running = nil
		r.busy = false
	}
	out = append(out, r.queue...)
	r.queue = nil
	return out
}

// Abort removes the batch with the given ID, whether executing or
// queued, and returns it; nil if no such batch is outstanding. Aborting
// the executing batch frees the system for the next queued one — the
// deadline-timeout path of the cluster fabric.
func (r *Runtime) Abort(id int) *Batch {
	if r.busy && r.running.ID == id {
		b := r.running
		r.gen++
		r.running = nil
		r.busy = false
		r.pump()
		return b
	}
	for i, b := range r.queue {
		if b.ID == id {
			r.queue = append(r.queue[:i], r.queue[i+1:]...)
			return b
		}
	}
	return nil
}

// pump starts the next queued batch when the system is free. Batches
// run one at a time at batch granularity (each batch's jobs are spread
// across all layers by the scheduler; overlapping whole batches would
// double-book the arrays the scheduler just planned with).
func (r *Runtime) pump() {
	if r.busy || r.down || len(r.queue) == 0 {
		return
	}
	b := r.queue[0]
	r.queue = r.queue[1:]
	r.busy = true
	r.running = b
	myGen := r.gen
	start := r.eng.Now()
	if r.OnStart != nil {
		r.OnStart(b, start)
	}
	res := r.Scheduler.Schedule(r.Sys, b.Jobs)
	r.eng.After(res.Makespan, func() {
		if r.gen != myGen {
			return // batch was halted, evicted or aborted mid-flight
		}
		r.running = nil
		r.busy = false
		done := BatchResult{
			ID: b.ID, Arrival: b.Arrival, Tenant: b.Tenant,
			Start: start, Completed: r.eng.Now(),
		}
		if r.KeepAssignments {
			done.Assignments = res.Assignments
		}
		var execErr error
		if r.ExecError != nil {
			execErr = r.ExecError(b)
		}
		if execErr == nil {
			r.results = append(r.results, done)
		}
		if r.OnComplete != nil {
			r.OnComplete(done, execErr)
		}
		r.pump()
	})
}

// Summary aggregates a completed run.
type Summary struct {
	Batches   int
	Makespan  event.Time // completion of the last batch
	MeanLatMs float64
	P50LatMs  float64
	P90LatMs  float64
	P99LatMs  float64
	MeanQueMs float64
	P50QueMs  float64
	P99QueMs  float64
	Results   []BatchResult
}

// String renders the headline serving metrics.
func (s Summary) String() string {
	return fmt.Sprintf("runtime(batches=%d makespan=%.3fms latency mean=%.3f p50=%.3f p90=%.3f p99=%.3f queue mean=%.3f p50=%.3f p99=%.3fms)",
		s.Batches, s.Makespan.Millis(), s.MeanLatMs, s.P50LatMs, s.P90LatMs, s.P99LatMs,
		s.MeanQueMs, s.P50QueMs, s.P99QueMs)
}

// Summarize aggregates the results accumulated so far without touching
// the engine — the read path for shared-engine runtimes whose owner ran
// the simulation. A run with no completed batches summarises to zeros.
func (r *Runtime) Summarize() Summary {
	if len(r.results) == 0 {
		return Summary{}
	}
	var lats, queues []float64
	makespan := event.Time(0)
	for _, b := range r.results {
		lats = append(lats, b.Latency().Millis())
		queues = append(queues, b.QueueDelay().Millis())
		if b.Completed > makespan {
			makespan = b.Completed
		}
	}
	lat, que := stats.SummarizeLatency(lats), stats.SummarizeLatency(queues)
	return Summary{
		Batches:   len(r.results),
		Makespan:  makespan,
		MeanLatMs: lat.Mean,
		P50LatMs:  lat.P50,
		P90LatMs:  lat.P90,
		P99LatMs:  lat.P99,
		MeanQueMs: que.Mean,
		P50QueMs:  que.P50,
		P99QueMs:  que.P99,
		Results:   r.results,
	}
}

// Run drains all submitted arrivals and returns the serving summary.
func (r *Runtime) Run() Summary {
	r.eng.Run()
	return r.Summarize()
}
