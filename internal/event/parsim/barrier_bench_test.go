package parsim

import (
	"testing"

	"mlimp/internal/event"
)

// Fleet shape of the fleet-chaos benchmark workload: 64 nodes under 32
// hubs, every hub with two nodes.
const (
	benchHubs   = 32
	benchNodes  = 64
	benchRounds = 200
)

// buildBarrierFleet wires the fabric-fault mesh a hub tree declares when
// any hub may take over any node: hub->hub, hub->node and node->hub are
// all prompt, 5,088 edges over 96 shards. Every node ticks once per hop
// for benchRounds rounds; in each round four nodes report to their hub,
// and the hub answers each report, so every window carries a handful of
// cross-shard messages while most shards stay runnable.
func buildBarrierFleet(workers int) *Driver {
	d := NewDriver(workers)
	answer := d.Handle(func(*Shard, int, Payload) {})
	report := d.Handle(func(hub *Shard, _ int, p Payload) {
		n := p.Ref.(*Shard)
		hub.Send(n, hub.EarliestTo(n), answer, Payload{})
	})
	hubs := make([]*Shard, benchHubs)
	for i := range hubs {
		hubs[i] = d.AddShard()
	}
	nodes := make([]*Shard, benchNodes)
	for i := range nodes {
		nodes[i] = d.AddShard()
	}
	prompt := EdgeLatency{Fixed: hop}
	for _, a := range hubs {
		for _, b := range hubs {
			if a != b {
				d.SetEdge(a, b, prompt)
			}
		}
		for _, n := range nodes {
			d.SetEdge(a, n, prompt)
			d.SetEdge(n, a, prompt)
		}
	}
	for k, n := range nodes {
		k, n := k, n
		hub := hubs[k%benchHubs]
		var tick func(round int) func()
		tick = func(round int) func() {
			return func() {
				if (k+round)%(benchNodes/4) == 0 {
					n.Send(hub, n.EarliestTo(hub), report, Payload{Ref: n})
				}
				if round < benchRounds {
					n.Engine().After(hop, tick(round+1))
				}
			}
		}
		n.Engine().At(event.Time(k%4)*hop/4, tick(0))
	}
	return d
}

// BenchmarkBarrier measures the parsim barrier on a fleet-chaos-shaped
// mesh: one op declares the 96-shard mesh, seeds the node programs and
// runs every window to completion on one worker, so shard events are a
// small share and the per-window horizon computation and mailbox merge
// dominate.
func BenchmarkBarrier(b *testing.B) { benchBarrier(b, 1) }

// BenchmarkBarrierPool is BenchmarkBarrier at two workers, as
// fleet-chaos runs: every multi-shard window also pays the helper
// pool's wake and barrier.
func BenchmarkBarrierPool(b *testing.B) { benchBarrier(b, 2) }

func benchBarrier(b *testing.B, workers int) {
	b.ReportAllocs()
	var windows int
	for i := 0; i < b.N; i++ {
		d := buildBarrierFleet(workers)
		d.Run()
		windows = d.Stats().Windows
	}
	if windows == 0 {
		b.Fatal("barrier fleet ran no windows")
	}
}
