// Cluster serving: run a heterogeneous multi-node MLIMP fleet under an
// open Poisson-style arrival stream and compare load-balancing
// policies. Each node runs on its own event-engine shard, one network
// hop from the dispatch hub, and the whole fleet is byte-for-byte
// reproducible for a fixed seed at any worker count.
package main

import (
	"fmt"
	"math/rand"

	"mlimp/internal/cluster"
	"mlimp/internal/event"
	"mlimp/internal/isa"
	"mlimp/internal/runtime"
	"mlimp/internal/workload"
)

func main() {
	// 1. Describe the fleet: four nodes with different computable-memory
	//    layer mixes. The last one only has 20 MHz ReRAM crossbars plus a
	//    halved capacity — a straggler a naive balancer keeps feeding.
	fleet := []cluster.NodeConfig{
		{Name: "full", Targets: isa.Targets},
		{Name: "sram-dram", Targets: []isa.Target{isa.SRAM, isa.DRAM}},
		{Name: "dram-reram", Targets: []isa.Target{isa.DRAM, isa.ReRAM}},
		{Name: "reram-half", Targets: []isa.Target{isa.ReRAM}, Scale: 0.5},
	}

	// 2. Admission control: at most 6 outstanding batches per node;
	//    arrivals that find every queue full are retried up to 4 times
	//    with doubling backoff in simulated time, then shed.
	adm := cluster.Admission{QueueCap: 6, MaxRetries: 4, Backoff: 250 * event.Microsecond}

	// 3. Drive the identical workload through each policy: batches of
	//    Table II app jobs arriving as a Poisson process (re-seeding the
	//    rng per policy holds arrivals and job mix fixed).
	for _, name := range cluster.PolicyNames() {
		policy, _ := cluster.PolicyByName(name)
		d := cluster.NewShardedDispatcher(policy, adm, cluster.ShardConfig{}, fleet...)
		rng := rand.New(rand.NewSource(42))
		for i, at := range cluster.PoissonArrivals(rng, 24, 2*event.Millisecond) {
			d.Submit(&runtime.Batch{
				ID:      i,
				Arrival: at,
				Jobs:    workload.RandomJobs(rng, 3, i*100),
			})
		}

		// 4. Run advances every shard to quiescence and aggregates fleet
		//    metrics: latency and queue-delay percentiles, shed/retry
		//    counters, and per-node utilization.
		fmt.Println(d.Run())
	}
	fmt.Println("\npredicted-cost routes around the ReRAM straggler using the")
	fmt.Println("scheduler's own cost model, where roundrobin keeps feeding it.")
}
