package runtime

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mlimp/internal/event"
	"mlimp/internal/event/parsim"
	"mlimp/internal/isa"
	"mlimp/internal/sched"
)

func mkJob(id int, ms float64) *sched.Job {
	var est sched.Estimates
	for _, t := range isa.Targets {
		freq := map[isa.Target]float64{isa.SRAM: 2500, isa.DRAM: 300, isa.ReRAM: 20}[t]
		est.Set(t, sched.Profile{
			UnitCycles: int64(ms * freq * 1000),
			RepUnit:    8, LoadBytes: 1 << 16, Beta: sched.DefaultBeta,
		})
	}
	return &sched.Job{ID: id, Name: "rt", Kind: "rt", Est: &est}
}

func mkBatch(id int, at event.Time, n int, rng *rand.Rand) *Batch {
	jobs := make([]*sched.Job, n)
	for i := range jobs {
		jobs[i] = mkJob(id*100+i, 0.05+rng.Float64()*0.2)
	}
	return &Batch{ID: id, Arrival: at, Jobs: jobs}
}

func mustNew(t *testing.T, sys *sched.System, sc sched.Scheduler) *Runtime {
	t.Helper()
	r, err := New(sys, sc)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func mustNewOn(t *testing.T, eng *event.Engine, sys *sched.System, sc sched.Scheduler) *Runtime {
	t.Helper()
	r, err := NewOn(eng, sys, sc)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func mustSubmit(t *testing.T, r *Runtime, b *Batch) {
	t.Helper()
	if err := r.Submit(b); err != nil {
		t.Fatal(err)
	}
}

func TestSingleBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := mustNew(t, sched.NewSystem(isa.Targets...), sched.NewGlobal())
	mustSubmit(t, r, mkBatch(0, 0, 8, rng))
	s := r.Run()
	if s.Batches != 1 {
		t.Fatalf("batches = %d", s.Batches)
	}
	if s.Results[0].QueueDelay() != 0 {
		t.Error("first batch should not queue")
	}
	if s.Makespan <= 0 || s.MeanLatMs <= 0 {
		t.Errorf("summary = %v", s)
	}
	if !strings.Contains(s.String(), "batches=1") {
		t.Errorf("render = %q", s)
	}
}

func TestBackToBackArrivalsQueue(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r := mustNew(t, sched.NewSystem(isa.Targets...), sched.NewGlobal())
	// Three batches arriving at t=0: the second and third must wait.
	for i := 0; i < 3; i++ {
		mustSubmit(t, r, mkBatch(i, 0, 8, rng))
	}
	s := r.Run()
	if s.Batches != 3 {
		t.Fatalf("batches = %d", s.Batches)
	}
	if s.Results[0].QueueDelay() != 0 {
		t.Error("head batch should start immediately")
	}
	if s.Results[1].QueueDelay() <= 0 || s.Results[2].QueueDelay() <= s.Results[1].QueueDelay() {
		t.Errorf("queue delays not increasing: %v, %v",
			s.Results[1].QueueDelay(), s.Results[2].QueueDelay())
	}
	// FIFO order.
	for i, b := range s.Results {
		if b.ID != i {
			t.Errorf("completion order broke FIFO: %v", s.Results)
		}
	}
}

func TestSparseArrivalsDoNotQueue(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := mustNew(t, sched.NewSystem(isa.Targets...), sched.NewGlobal())
	// Arrivals a full second apart cannot contend.
	for i := 0; i < 3; i++ {
		mustSubmit(t, r, mkBatch(i, event.Time(i)*event.Second, 4, rng))
	}
	s := r.Run()
	if s.MeanQueMs != 0 {
		t.Errorf("sparse arrivals queued: %v", s.MeanQueMs)
	}
}

func TestLatencyGrowsWithLoad(t *testing.T) {
	run := func(gapMs float64) float64 {
		rng := rand.New(rand.NewSource(4))
		r := mustNew(t, sched.NewSystem(isa.Targets...), sched.NewGlobal())
		for i := 0; i < 8; i++ {
			at := event.Time(float64(i) * gapMs * float64(event.Millisecond))
			mustSubmit(t, r, mkBatch(i, at, 8, rng))
		}
		return r.Run().P99LatMs
	}
	relaxed := run(50)
	loaded := run(0.01)
	if loaded <= relaxed {
		t.Errorf("p99 under load (%v) should exceed relaxed (%v)", loaded, relaxed)
	}
}

// TestErrors: API misuse is rejected with errors, not panics — in a
// serving fabric these come from remote callers and must be survivable.
func TestErrors(t *testing.T) {
	if _, err := New(nil, sched.NewGlobal()); err == nil {
		t.Error("nil system accepted")
	}
	if _, err := New(sched.NewSystem(isa.SRAM), nil); err == nil {
		t.Error("nil scheduler accepted")
	}
	if _, err := NewOn(nil, sched.NewSystem(isa.SRAM), sched.NewGlobal()); err == nil {
		t.Error("nil engine accepted")
	}
	r := mustNew(t, sched.NewSystem(isa.SRAM), sched.NewGlobal())
	if err := r.Enqueue(&Batch{ID: 0}); !errors.Is(err, ErrEmptyBatch) {
		t.Errorf("empty Enqueue: err = %v, want ErrEmptyBatch", err)
	}
	if err := r.Submit(&Batch{ID: 0, Arrival: 0}); !errors.Is(err, ErrEmptyBatch) {
		t.Errorf("empty Submit: err = %v, want ErrEmptyBatch", err)
	}
	if err := r.Submit(nil); !errors.Is(err, ErrNilBatch) {
		t.Errorf("nil Submit: err = %v, want ErrNilBatch", err)
	}
	if s := r.Run(); s.Batches != 0 {
		t.Errorf("rejected batches ran: %d", s.Batches)
	}
}

func TestInjectedEngine(t *testing.T) {
	// Two runtimes on one shared engine advance in a single timeline:
	// the engine owner runs it once and reads both via Summarize.
	rng := rand.New(rand.NewSource(6))
	eng := &event.Engine{}
	a := mustNewOn(t, eng, sched.NewSystem(isa.Targets...), sched.NewGlobal())
	b := mustNewOn(t, eng, sched.NewSystem(isa.SRAM, isa.DRAM), sched.NewGlobal())
	if a.Engine() != eng || b.Engine() != eng {
		t.Fatal("injected engine not retained")
	}
	mustSubmit(t, a, mkBatch(0, 0, 4, rng))
	mustSubmit(t, b, mkBatch(1, event.Microsecond, 4, rng))
	end := eng.Run()
	sa, sb := a.Summarize(), b.Summarize()
	if sa.Batches != 1 || sb.Batches != 1 {
		t.Fatalf("batches = %d, %d", sa.Batches, sb.Batches)
	}
	if sa.Makespan > end || sb.Makespan > end {
		t.Errorf("per-runtime makespans %v, %v exceed shared end %v", sa.Makespan, sb.Makespan, end)
	}
	// New must still give every standalone runtime a private engine.
	if mustNew(t, sched.NewSystem(isa.SRAM), sched.NewGlobal()).Engine() == eng {
		t.Error("New shared an engine it should own")
	}
}

func TestZeroBatchRun(t *testing.T) {
	r := mustNew(t, sched.NewSystem(isa.Targets...), sched.NewGlobal())
	s := r.Run()
	if s.Batches != 0 || s.Makespan != 0 || s.MeanLatMs != 0 ||
		s.P50LatMs != 0 || s.P90LatMs != 0 || s.P99LatMs != 0 ||
		s.P50QueMs != 0 || s.P99QueMs != 0 {
		t.Errorf("zero-batch summary not zero: %v", s)
	}
	if !strings.Contains(s.String(), "batches=0") {
		t.Errorf("render = %q", s)
	}
}

func TestHooksFire(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	r := mustNew(t, sched.NewSystem(isa.Targets...), sched.NewGlobal())
	var starts []event.Time
	var completes []BatchResult
	r.OnStart = func(b *Batch, at event.Time) {
		if r.Outstanding() == 0 {
			t.Error("OnStart fired with nothing outstanding")
		}
		starts = append(starts, at)
	}
	r.OnComplete = func(res BatchResult, err error) {
		if err != nil {
			t.Errorf("unexpected exec error: %v", err)
		}
		completes = append(completes, res)
	}
	for i := 0; i < 3; i++ {
		mustSubmit(t, r, mkBatch(i, 0, 4, rng))
	}
	s := r.Run()
	if len(starts) != 3 || len(completes) != 3 {
		t.Fatalf("hooks fired %d/%d times, want 3/3", len(starts), len(completes))
	}
	for i, res := range completes {
		if res.Start != starts[i] {
			t.Errorf("batch %d: OnStart at %v but result started %v", i, starts[i], res.Start)
		}
		if res.Start != s.Results[i].Start || res.Completed != s.Results[i].Completed {
			t.Errorf("batch %d: hook result differs from summary", i)
		}
	}
	if r.Outstanding() != 0 {
		t.Errorf("outstanding after drain = %d", r.Outstanding())
	}
}

// TestExecError: a failed execution occupies the system but leaves no
// result — the error goes to OnComplete for the fabric layer to handle.
func TestExecError(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	r := mustNew(t, sched.NewSystem(isa.Targets...), sched.NewGlobal())
	boom := errors.New("boom")
	r.ExecError = func(b *Batch) error {
		if b.ID == 1 {
			return boom
		}
		return nil
	}
	var failed []int
	r.OnComplete = func(res BatchResult, err error) {
		if err != nil {
			failed = append(failed, res.ID)
		}
	}
	for i := 0; i < 3; i++ {
		mustSubmit(t, r, mkBatch(i, 0, 4, rng))
	}
	s := r.Run()
	if s.Batches != 2 {
		t.Fatalf("recorded batches = %d, want 2 (one failed)", s.Batches)
	}
	for _, res := range s.Results {
		if res.ID == 1 {
			t.Error("failed batch recorded a result")
		}
	}
	if len(failed) != 1 || failed[0] != 1 {
		t.Errorf("failed IDs = %v, want [1]", failed)
	}
}

// TestHaltResume: a crash mid-batch loses the partial work; the batch
// restarts from scratch after Resume and everything still completes.
func TestHaltResume(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	baseline := func() event.Time {
		r := mustNew(t, sched.NewSystem(isa.Targets...), sched.NewGlobal())
		mustSubmit(t, r, mkBatch(0, 0, 6, rand.New(rand.NewSource(11))))
		return r.Run().Makespan
	}()

	eng := &event.Engine{}
	r := mustNewOn(t, eng, sched.NewSystem(isa.Targets...), sched.NewGlobal())
	mustSubmit(t, r, mkBatch(0, 0, 6, rng))
	outage := baseline // halt half-way, stay down for one whole service time
	eng.After(baseline/2, func() {
		r.Halt()
		if !r.Down() {
			t.Error("Down() false after Halt")
		}
		if r.Outstanding() != 1 {
			t.Errorf("outstanding after halt = %d, want 1 (requeued)", r.Outstanding())
		}
		eng.After(outage, r.Resume)
	})
	eng.Run()
	s := r.Summarize()
	if s.Batches != 1 {
		t.Fatalf("batches = %d, want 1", s.Batches)
	}
	// The restart discards the pre-crash half: completion lands at
	// halt + outage + full service, well past the no-fault makespan.
	if s.Makespan <= baseline+outage {
		t.Errorf("makespan %v too early for a restarted batch (baseline %v, outage %v)",
			s.Makespan, baseline, outage)
	}
	if r.Down() {
		t.Error("still down after Resume")
	}
}

// TestEvictAndAbort: eviction pulls queued and running work for
// re-dispatch elsewhere; abort kills one batch by ID.
func TestEvictAndAbort(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	eng := &event.Engine{}
	r := mustNewOn(t, eng, sched.NewSystem(isa.Targets...), sched.NewGlobal())
	for i := 0; i < 3; i++ {
		mustSubmit(t, r, mkBatch(i, 0, 6, rng))
	}
	eng.After(event.Nanosecond, func() {
		if got := r.Abort(2); got == nil || got.ID != 2 {
			t.Errorf("Abort(2) = %v", got)
		}
		if got := r.Abort(99); got != nil {
			t.Errorf("Abort(99) = %v, want nil", got)
		}
		evicted := r.Evict()
		if len(evicted) != 2 || evicted[0].ID != 0 || evicted[1].ID != 1 {
			t.Fatalf("evicted = %v, want running batch 0 then queued 1", evicted)
		}
		if r.Outstanding() != 0 {
			t.Errorf("outstanding after evict = %d", r.Outstanding())
		}
	})
	eng.Run()
	if s := r.Summarize(); s.Batches != 0 {
		t.Errorf("evicted/aborted batches still completed: %d", s.Batches)
	}
}

// TestDeterministicReplay checks the full summary — every percentile,
// not just the makespan — is identical across two runs with the same
// seed, on both the owned- and injected-engine paths.
func TestDeterministicReplay(t *testing.T) {
	run := func() string {
		rng := rand.New(rand.NewSource(9))
		eng := &event.Engine{}
		r := mustNewOn(t, eng, sched.NewSystem(isa.Targets...), sched.NewGlobal())
		for i := 0; i < 6; i++ {
			mustSubmit(t, r, mkBatch(i, event.Time(i)*100*event.Microsecond, 5, rng))
		}
		eng.Run()
		return r.Summarize().String()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("replay diverged:\n%s\nvs\n%s", a, b)
	}
}

func TestDeterministic(t *testing.T) {
	run := func() event.Time {
		rng := rand.New(rand.NewSource(5))
		r := mustNew(t, sched.NewSystem(isa.Targets...), sched.NewAdaptive())
		for i := 0; i < 5; i++ {
			mustSubmit(t, r, mkBatch(i, event.Time(i)*event.Millisecond, 6, rng))
		}
		return r.Run().Makespan
	}
	if a, b := run(), run(); a != b {
		t.Errorf("nondeterministic runtime: %v vs %v", a, b)
	}
}

// TestSharedBatchTwoShards: one tenanted batch starts on two node shards
// in the same parsim window, as after a re-dispatch whose old node still
// holds the batch. A submitted Batch and its Jobs are read-only, so both
// runtimes schedule the shared jobs concurrently without a data race
// (run under -race) and finish at the same instant with the jobs
// unchanged.
func TestSharedBatchTwoShards(t *testing.T) {
	for _, workers := range []int{2, 4} {
		b := mkBatch(0, 0, 6, rand.New(rand.NewSource(3)))
		b.Tenant = "t0"
		for _, j := range b.Jobs {
			j.Tenant = b.Tenant
		}
		before := make([]sched.Job, len(b.Jobs))
		for i, j := range b.Jobs {
			before[i] = *j
		}
		drv := parsim.NewDriver(event.Microsecond, workers)
		var done [2]BatchResult
		for i := range done {
			r := mustNewOn(t, drv.AddShard().Engine(), sched.NewSystem(isa.Targets...), sched.NewGlobal())
			r.OnComplete = func(res BatchResult, err error) {
				if err != nil {
					t.Errorf("workers=%d shard %d: %v", workers, i, err)
				}
				done[i] = res
			}
			mustSubmit(t, r, b)
		}
		drv.Run()
		if st := drv.Stats(); st.MaxActive != 2 {
			t.Errorf("workers=%d: max active shards = %d, want both in one window", workers, st.MaxActive)
		}
		if done[0].Completed == 0 || !reflect.DeepEqual(done[0], done[1]) {
			t.Errorf("workers=%d: shard results differ: %+v vs %+v", workers, done[0], done[1])
		}
		for i, j := range b.Jobs {
			if !reflect.DeepEqual(*j, before[i]) {
				t.Errorf("workers=%d: job %d mutated after submission", workers, j.ID)
			}
		}
	}
}
