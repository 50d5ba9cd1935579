package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
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
// tenant of each job determine the key — as a multiset when the batch
// is tenant-pure, in batch order when it mixes tenants.
func contentSig(jobs []*sched.Job) string {
	parts := make([]string, len(jobs))
	pure := true
	for i, j := range jobs {
		parts[i] = j.Kind + "/" + j.Tenant
		pure = pure && j.Tenant == jobs[0].Tenant
	}
	if pure {
		slices.Sort(parts)
	}
	return strings.Join(parts, "|")
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

// permute calls f with every permutation of jobs (Heap's algorithm),
// reordering jobs in place; the first call sees the original order.
func permute(jobs []*sched.Job, f func()) {
	var gen func(k int)
	gen = func(k int) {
		if k <= 1 {
			f()
			return
		}
		for i := 0; i < k-1; i++ {
			gen(k - 1)
			if k%2 == 0 {
				jobs[i], jobs[k-1] = jobs[k-1], jobs[i]
			} else {
				jobs[0], jobs[k-1] = jobs[k-1], jobs[0]
			}
		}
		gen(k - 1)
	}
	gen(len(jobs))
}

// permutationViews builds one view per cell of the estimate cache's
// permutation matrix: the bundled cluster fleet's four layer mixes at
// Scale 1 and 0.25, under every packing, healthy and with half of the
// first layer's arrays lost.
func permutationViews() []*Node {
	mixes := []NodeConfig{
		{Name: "full", Targets: isa.Targets},
		{Name: "sram-dram", Targets: []isa.Target{isa.SRAM, isa.DRAM}},
		{Name: "dram-reram", Targets: []isa.Target{isa.DRAM, isa.ReRAM}},
		{Name: "reram", Targets: []isa.Target{isa.ReRAM}},
	}
	var views []*Node
	for _, mix := range mixes {
		for _, scale := range []float64{1, 0.25} {
			for _, pk := range []sched.Packing{sched.PackFirstFit, sched.PackPartitioned, sched.PackWeightedFair} {
				for _, degraded := range []bool{false, true} {
					cfg := mix
					cfg.Scale, cfg.Packing = scale, pk
					cfg.Name = fmt.Sprintf("%s@%g/%v/degraded=%v", mix.Name, scale, pk, degraded)
					n := newView(cfg)
					if degraded {
						first := cfg.Targets[0]
						n.degrade(first, n.Sys.Layers[first].Capacity()/2)
					}
					views = append(views, n)
				}
			}
		}
	}
	return views
}

// TestEstimateCacheOrderFreeTenantPure is the differential test behind
// the cache's order-free keys: on every view of the permutation matrix,
// every permutation of random tenant-pure RequestPool batches (2 to 5
// jobs, untenanted and one-tenant) must estimate to a fresh planning
// pass of that very permutation, and every permutation after the first
// must hit the entry the first one left. A hit on a permuted batch
// allocates nothing: the key order is built in the cache's own slice.
func TestEstimateCacheOrderFreeTenantPure(t *testing.T) {
	pool := workload.NewRequestPool()
	rng := rand.New(rand.NewSource(26))
	nextID := 0
	for _, n := range permutationViews() {
		for round := 0; round < 2; round++ {
			for size := 2; size <= 5; size++ {
				jobs := poolBatch(pool, rng.Int63(), size, &nextID)
				if (size+round)%2 == 1 {
					for _, j := range jobs {
						j.Tenant = "t0"
					}
				}
				perm := 0
				permute(jobs, func() {
					hits0, _ := n.EstCacheStats()
					got := n.EstimateCost(jobs)
					if want := sched.NewGlobal().Schedule(n.Sys, jobs).Makespan; got != want {
						t.Fatalf("%s %s: estimate %v != fresh plan %v", n.Name, contentSig(jobs), got, want)
					}
					if hits, _ := n.EstCacheStats(); perm > 0 && hits != hits0+1 {
						t.Fatalf("%s %s: permutation %d missed", n.Name, contentSig(jobs), perm)
					}
					perm++
				})
				if a := testing.AllocsPerRun(10, func() { n.EstimateCost(jobs) }); a != 0 {
					t.Fatalf("%s: a cache hit allocated %v times", n.Name, a)
				}
			}
		}
	}
}

// TestEstimateCacheMixedTenantKeepsOrder pins why a batch that mixes
// tenants keeps batch order in its key: under PackPartitioned the
// planner carves one array region per tenant in order of first
// appearance, so permutations of this two-tenant batch (fluidanimate,
// kmeans, bitap for t0; kmeans, streamclusterA for t1) plan to more than
// one makespan. Its five tuples are distinct, so every permutation must
// miss and estimate to its own fresh plan.
func TestEstimateCacheMixedTenantKeepsOrder(t *testing.T) {
	pool := workload.NewRequestPool()
	nextID := 0
	jobs := workload.AssignTenants(poolBatch(pool, 6304181816417688796, 5, &nextID), 2)
	n := newView(NodeConfig{Name: "part", Targets: isa.Targets, Packing: sched.PackPartitioned})
	spans := map[event.Time]bool{}
	permute(jobs, func() {
		_, misses0 := n.EstCacheStats()
		got := n.EstimateCost(jobs)
		want := sched.NewGlobal().Schedule(n.Sys, jobs).Makespan
		if got != want {
			t.Fatalf("%s: estimate %v != fresh plan %v", contentSig(jobs), got, want)
		}
		if _, misses := n.EstCacheStats(); misses != misses0+1 {
			t.Fatalf("%s: permuted two-tenant batch hit", contentSig(jobs))
		}
		spans[want] = true
	})
	if len(spans) < 2 {
		t.Errorf("every permutation of %s plans to one makespan under PackPartitioned: mixed-tenant keys could ignore order", contentSig(jobs))
	}
}

// TestEstimateCacheIDKeyFallbacks covers the two cases where an
// estimate is not a function of job content: jobs with a TrueTime
// closure, and views that replicate when idle. Content-equal batches
// with fresh IDs must miss there, the very same batch must hit, the
// same jobs in reverse order must miss (ID-keyed keys keep batch
// order), and every estimate must still equal a fresh planning pass.
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
			slices.Reverse(jobs)
			_, misses0 = n.EstCacheStats()
			if got, want := n.EstimateCost(jobs), sched.NewGlobal().Schedule(n.Sys, jobs).Makespan; got != want {
				t.Fatalf("%s call %d: reversed batch estimate %v != fresh plan %v", c.name, call, got, want)
			}
			if _, misses := n.EstCacheStats(); misses != misses0+1 {
				t.Fatalf("%s call %d: reversed ID-keyed batch hit", c.name, call)
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

// BenchmarkEstimateCostPermuted is BenchmarkEstimateCost with each
// recurrence of an app mix rotated into another job order: the 64
// batches are tenant-pure, so order-free keys plan each of the 16 mixes
// once. plans/op reports the planning passes (cache misses) per op.
func BenchmarkEstimateCostPermuted(b *testing.B) {
	pool := workload.NewRequestPool()
	nextID := 0
	stream := make([][]*sched.Job, 64)
	for i := range stream {
		jobs := poolBatch(pool, int64(i%16), 4, &nextID)
		r := i / 16
		stream[i] = append(jobs[r:], jobs[:r]...)
	}
	n := newView(fullNode("full"))
	_, misses0 := n.EstCacheStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.est.reset()
		for _, jobs := range stream {
			n.EstimateCost(jobs)
		}
	}
	_, misses := n.EstCacheStats()
	b.ReportMetric(float64(misses-misses0)/float64(b.N), "plans/op")
}
