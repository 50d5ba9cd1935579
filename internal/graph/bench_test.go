package graph

import (
	"math/rand"
	"testing"
)

// benchGraph is the 1200-vertex scale-free stand-in the serving
// experiments sample their requests from.
func benchGraph(rng *rand.Rand) *Graph {
	d := Dataset{Name: "serving", Vertices: 1200, ScaleDiv: 1, Attachment: 8}
	return d.Generate(rng)
}

// BenchmarkSample measures one 2-hop, unlimited-fanout subgraph
// extraction — the per-request cost of building a GNN serving workload.
func BenchmarkSample(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := benchGraph(rng)
	s := NewSampler(rng, g, 2, 0)
	queries := make([]int, 256)
	for i := range queries {
		queries[i] = rng.Intn(g.N)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample(queries[i%len(queries)])
	}
}

// BenchmarkConcat measures merging a batch of 8 sampled subgraphs into
// one concatenated subgraph (the dense-graph batching mode).
func BenchmarkConcat(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := benchGraph(rng)
	s := NewSampler(rng, g, 2, 0)
	batch := make([]*Subgraph, 8)
	for i := range batch {
		batch[i] = s.Sample(rng.Intn(g.N))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Concat(batch)
	}
}
