package cluster

import (
	"math/rand"
	"testing"

	"mlimp/internal/event"
	"mlimp/internal/isa"
	"mlimp/internal/runtime"
	"mlimp/internal/sched"
	"mlimp/internal/workload"
)

// TestEstimateCacheTransparent checks the memoized estimate equals a
// fresh planning pass and that repeat queries hit.
func TestEstimateCacheTransparent(t *testing.T) {
	n := NewNode(&event.Engine{}, fullNode("a"))
	jobs := mkBatch(1, 0, 4).Jobs
	first := n.EstimateCost(jobs)
	fresh := sched.NewGlobal().Schedule(n.Sys, jobs).Makespan
	if first != fresh {
		t.Fatalf("cached estimate %v != fresh plan %v", first, fresh)
	}
	again := n.EstimateCost(jobs)
	if again != first {
		t.Fatalf("estimate changed on repeat: %v vs %v", again, first)
	}
	hits, misses := n.EstCacheStats()
	if hits != 1 || misses != 1 {
		t.Errorf("cache stats hits=%d misses=%d, want 1/1", hits, misses)
	}
	// A different batch must not alias the cache entry.
	other := mkBatch(2, 0, 2).Jobs
	if n.EstimateCost(other) == 0 {
		t.Error("second batch estimate missing")
	}
	if _, misses := n.EstCacheStats(); misses != 2 {
		t.Errorf("distinct batch did not miss: misses=%d", misses)
	}
}

// TestPredictedCostDeterministicWithCache runs the same predicted-cost
// fleet twice from the same seed: the cache must not perturb a single
// routing decision, so the summaries render identically.
func TestPredictedCostDeterministicWithCache(t *testing.T) {
	run := func() string {
		p, _ := PolicyByName("predicted-cost")
		d := NewShardedDispatcher(p, Admission{MaxRetries: 3}, ShardConfig{},
			fullNode("full"),
			NodeConfig{Name: "slow", Targets: isa.Targets, Scale: 0.25})
		rng := rand.New(rand.NewSource(11))
		for i, at := range PoissonArrivals(rng, 24, 2*event.Millisecond) {
			d.Submit(&runtime.Batch{ID: i, Arrival: at,
				Jobs: workload.RandomJobs(rng, 3, i*100)})
		}
		return d.Run().String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("predicted-cost fleet not deterministic:\n%s\nvs\n%s", a, b)
	}
	// The admission flow estimates each accepted batch at least twice on
	// the hub's views (Pick + booking), so a run of this size must see
	// real cache traffic.
	p, _ := PolicyByName("predicted-cost")
	d := NewShardedDispatcher(p, Admission{}, ShardConfig{},
		fullNode("full"),
		NodeConfig{Name: "slow", Targets: isa.Targets, Scale: 0.25})
	rng := rand.New(rand.NewSource(11))
	for i, at := range PoissonArrivals(rng, 24, 2*event.Millisecond) {
		d.Submit(&runtime.Batch{ID: i, Arrival: at,
			Jobs: workload.RandomJobs(rng, 3, i*100)})
	}
	d.Run()
	var hits int64
	for _, v := range d.regions[0].views {
		h, _ := v.EstCacheStats()
		hits += h
	}
	if hits == 0 {
		t.Error("predicted-cost run produced zero estimate-cache hits")
	}
}

// poolBatch draws one batch of RequestPool jobs: shape seed fixes the
// apps drawn, *nextID supplies fresh job IDs.
func poolBatch(pool *workload.RequestPool, shape int64, size int, nextID *int) []*sched.Job {
	rng := rand.New(rand.NewSource(shape))
	jobs := make([]*sched.Job, size)
	for i := range jobs {
		jobs[i] = pool.Draw(rng, *nextID)
		*nextID++
	}
	return jobs
}

// contentSig names a batch's content as the estimate cache sees it:
// every RequestPool job of one app shares its Est, so the app and
// tenant sequence determines the key.
func contentSig(jobs []*sched.Job) string {
	var sig string
	for _, j := range jobs {
		sig += j.Kind + "/" + j.Tenant + "|"
	}
	return sig
}

// TestEstimateCacheContentKeyDifferential streams random batches of
// repeated RequestPool shapes, each with fresh job IDs, through node
// views: every cached estimate must equal a fresh planning pass, and a
// batch whose content was already estimated must hit although no ID
// matches. Global.Schedule therefore depends on job content alone.
func TestEstimateCacheContentKeyDifferential(t *testing.T) {
	pool := workload.NewRequestPool()
	for _, cfg := range []NodeConfig{
		fullNode("full"),
		{Name: "sram-dram", Targets: []isa.Target{isa.SRAM, isa.DRAM}, Scale: 0.5},
		{Name: "fair", Targets: isa.Targets, Packing: sched.PackWeightedFair},
	} {
		n := newView(cfg)
		rng := rand.New(rand.NewSource(7))
		seen := map[string]bool{}
		nextID := 0
		for call := 0; call < 200; call++ {
			jobs := poolBatch(pool, rng.Int63n(12), 1+rng.Intn(4), &nextID)
			if rng.Intn(3) == 0 {
				workload.AssignTenants(jobs, 2)
			}
			sig := contentSig(jobs)
			hits0, misses0 := n.EstCacheStats()
			got := n.EstimateCost(jobs)
			if want := sched.NewGlobal().Schedule(n.Sys, jobs).Makespan; got != want {
				t.Fatalf("%s call %d: cached estimate %v != fresh plan %v", cfg.Name, call, got, want)
			}
			hits, misses := n.EstCacheStats()
			if seen[sig] && hits != hits0+1 {
				t.Fatalf("%s call %d: content-equal batch %s missed", cfg.Name, call, sig)
			}
			if !seen[sig] && misses != misses0+1 {
				t.Fatalf("%s call %d: new content %s hit", cfg.Name, call, sig)
			}
			seen[sig] = true
		}
		if hits, _ := n.EstCacheStats(); hits == 0 {
			t.Errorf("%s: no content-equal batch hit", cfg.Name)
		}
	}
}

// TestEstimateCacheIDKeyFallbacks covers the two cases where an
// estimate is not a function of job content: jobs with a TrueTime
// closure, and views that replicate when idle. Content-equal batches
// with fresh IDs must miss there, the very same batch must hit, and
// every estimate must still equal a fresh planning pass.
func TestEstimateCacheIDKeyFallbacks(t *testing.T) {
	pool := workload.NewRequestPool()
	withTruth := func(jobs []*sched.Job) []*sched.Job {
		for _, j := range jobs {
			j.TrueTime = func(sys *sched.System, tgt isa.Target, arrays int) event.Time {
				return sys.ModelTime(j, tgt, arrays)
			}
		}
		return jobs
	}
	plain := func(jobs []*sched.Job) []*sched.Job { return jobs }
	for _, c := range []struct {
		name string
		cfg  NodeConfig
		mod  func([]*sched.Job) []*sched.Job
	}{
		{"truetime", fullNode("full"), withTruth},
		{"replicating", NodeConfig{Name: "rep", Targets: isa.Targets, Replication: sched.ReplicateWhenIdle}, plain},
	} {
		n := newView(c.cfg)
		nextID := 0
		for call := 0; call < 20; call++ {
			jobs := c.mod(poolBatch(pool, int64(call%3), 3, &nextID))
			_, misses0 := n.EstCacheStats()
			got := n.EstimateCost(jobs)
			if want := sched.NewGlobal().Schedule(n.Sys, jobs).Makespan; got != want {
				t.Fatalf("%s call %d: cached estimate %v != fresh plan %v", c.name, call, got, want)
			}
			if _, misses := n.EstCacheStats(); misses != misses0+1 {
				t.Fatalf("%s call %d: fresh IDs hit a content-keyed entry", c.name, call)
			}
			hits0, _ := n.EstCacheStats()
			if again := n.EstimateCost(jobs); again != got {
				t.Fatalf("%s call %d: repeat estimate %v != %v", c.name, call, again, got)
			}
			if hits, _ := n.EstCacheStats(); hits != hits0+1 {
				t.Fatalf("%s call %d: repeat of the same batch missed", c.name, call)
			}
		}
	}
}

// TestEstimateCacheCollision plants another batch's entry under a
// query's hash: the lookup must not return it, and the miss overwrites
// the slot with the query's own estimate.
func TestEstimateCacheCollision(t *testing.T) {
	n := newView(fullNode("full"))
	query := []*sched.Job{mkJob(1, 200_000), mkJob(2, 300_000)}
	other := []*sched.Job{mkJob(3, 50_000), mkJob(4, 900_000)}
	n.EstimateCost(other)
	h := n.est.batchHash(other, false)
	planted := n.est.entries[h]
	delete(n.est.entries, h)
	planted.v = 12345
	n.est.entries[n.est.batchHash(query, false)] = planted
	want := sched.NewGlobal().Schedule(n.Sys, query).Makespan
	if got := n.EstimateCost(query); got != want {
		t.Fatalf("collision returned %v, fresh plan is %v", got, want)
	}
	if got := n.EstimateCost(query); got != want {
		t.Fatalf("overwritten slot returned %v, want %v", got, want)
	}
	if hits, misses := n.EstCacheStats(); hits != 1 || misses != 2 {
		t.Errorf("stats hits=%d misses=%d, want 1/2", hits, misses)
	}
}

// TestEstimateCacheBounded floods a view with distinct ID-keyed batches
// past MaxEstCacheEntries: the generation clear keeps the cache at or
// under its bound, counts the clear, and stays transparent.
func TestEstimateCacheBounded(t *testing.T) {
	n := newView(NodeConfig{Name: "rep", Targets: []isa.Target{isa.SRAM}, Replication: sched.ReplicateWhenIdle})
	jobs := []*sched.Job{mkJob(0, 1000)}
	for i := 0; i <= MaxEstCacheEntries; i++ {
		jobs[0].ID = i
		n.EstimateCost(jobs)
	}
	if len(n.est.entries) > MaxEstCacheEntries {
		t.Errorf("estCache grew to %d entries, bound is %d", len(n.est.entries), MaxEstCacheEntries)
	}
	if n.EstCacheClears() != 1 {
		t.Errorf("clears = %d, want 1", n.EstCacheClears())
	}
	if got, want := n.EstimateCost(jobs), sched.NewGlobal().Schedule(n.Sys, jobs).Makespan; got != want {
		t.Errorf("post-clear estimate %v != fresh plan %v", got, want)
	}
}

// BenchmarkEstimateCost measures the hub-side admission estimate on a
// full-node view: per op, the cache is emptied and a stream of 64
// four-job RequestPool batches with fresh IDs is estimated, 16 distinct
// app mixes each seen four times — 16 planning passes and 48 hits.
func BenchmarkEstimateCost(b *testing.B) {
	pool := workload.NewRequestPool()
	nextID := 0
	stream := make([][]*sched.Job, 64)
	for i := range stream {
		stream[i] = poolBatch(pool, int64(i%16), 4, &nextID)
	}
	n := newView(fullNode("full"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.est.reset()
		for _, jobs := range stream {
			n.EstimateCost(jobs)
		}
	}
}
