package graph

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"mlimp/internal/tensor"
)

var update = flag.Bool("update", false, "rewrite testdata/sample.golden from the current sampler")

// sampleDigester streams every field of a subgraph into one SHA-256.
type sampleDigester struct {
	h   hash.Hash
	buf []byte
}

func (d *sampleDigester) add(sg *Subgraph) {
	b := binary.LittleEndian.AppendUint64(d.buf[:0], uint64(sg.Query))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(sg.Nodes)))
	for _, v := range sg.Nodes {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	for _, p := range sg.Adj.RowPtr {
		b = binary.LittleEndian.AppendUint32(b, uint32(p))
	}
	for _, c := range sg.Adj.ColIdx {
		b = binary.LittleEndian.AppendUint32(b, uint32(c))
	}
	for _, v := range sg.Adj.Val {
		b = binary.LittleEndian.AppendUint16(b, uint16(v))
	}
	d.h.Write(b)
	d.buf = b
}

// sampleDigest samples 200 seeded 2-hop queries of dataset name at the
// given fanout, concatenating every 8 consecutive samples, and returns
// the SHA-256 of all of them in order.
func sampleDigest(t testing.TB, name string, fanout int) string {
	d, ok := DatasetByName(name)
	if !ok {
		t.Fatalf("dataset %s missing", name)
	}
	rng := rand.New(rand.NewSource(int64(len(name)*31 + fanout)))
	g := d.Generate(rng)
	s := NewSampler(rng, g, 2, fanout)
	dg := &sampleDigester{h: sha256.New()}
	var batch []*Subgraph
	for i := 0; i < 200; i++ {
		sg := s.Sample(rng.Intn(g.N))
		dg.add(sg)
		if batch = append(batch, sg); len(batch) == 8 {
			dg.add(s.Concat(batch))
			batch = batch[:0]
		}
	}
	return fmt.Sprintf("%x", dg.h.Sum(nil))
}

// refSample is the naive reference for Sampler.Sample: the same
// breadth-first walk and rng draws over a map member set, the members
// sorted behind the query, and every induced entry looked up one by one.
func refSample(rng *rand.Rand, g *Graph, hops, fanout, query int) *Subgraph {
	q := int32(query)
	in := map[int32]bool{q: true}
	visit := []int32{q}
	reach := func(v int32) {
		if !in[v] {
			in[v] = true
			visit = append(visit, v)
		}
	}
	for hop, lo := 0, 0; hop < hops && lo < len(visit); hop++ {
		hi := len(visit)
		for _, u := range visit[lo:hi] {
			ns := g.Neighbors(int(u))
			if fanout > 0 && len(ns) > fanout {
				for _, p := range rng.Perm(len(ns))[:fanout] {
					reach(ns[p])
				}
				continue
			}
			for _, v := range ns {
				reach(v)
			}
		}
		lo = hi
	}
	rest := slices.Clone(visit[1:])
	slices.Sort(rest)
	return refInduced(g, query, append([]int32{q}, rest...))
}

// refConcat is the naive reference for Sampler.Concat.
func refConcat(g *Graph, batch []*Subgraph) *Subgraph {
	var nodes []int32
	for _, sg := range batch {
		nodes = append(nodes, sg.Nodes...)
	}
	slices.Sort(nodes)
	return refInduced(g, batch[0].Query, slices.Compact(nodes))
}

// refInduced reads the normalised adjacency restricted to nodes entry by
// entry, in local column order. An entry exists where the mother graph
// has an edge or on the diagonal (the added self-loop), whatever its
// fixed-point value.
func refInduced(g *Graph, query int, nodes []int32) *Subgraph {
	na := g.NormalizedAdjacency()
	adj := tensor.NewCSR(len(nodes), len(nodes))
	for i, u := range nodes {
		for j, v := range nodes {
			if u == v || g.HasEdge(int(u), int(v)) {
				adj.ColIdx = append(adj.ColIdx, int32(j))
				adj.Val = append(adj.Val, na.At(int(u), int(v)))
			}
		}
		adj.RowPtr[i+1] = int32(len(adj.ColIdx))
	}
	return &Subgraph{Query: query, Nodes: nodes, Adj: adj}
}

func sameSubgraph(a, b *Subgraph) bool {
	return a.Query == b.Query && slices.Equal(a.Nodes, b.Nodes) &&
		slices.Equal(a.Adj.RowPtr, b.Adj.RowPtr) && slices.Equal(a.Adj.ColIdx, b.Adj.ColIdx) &&
		slices.Equal(a.Adj.Val, b.Adj.Val) && a.Adj.Rows == b.Adj.Rows && a.Adj.Cols == b.Adj.Cols
}

// withExtras rebuilds g with one isolated vertex inserted at id iso and a
// self-loop added on vertex loop (an id of the result).
func withExtras(g *Graph, iso, loop int) *Graph {
	b := NewBuilder(g.N + 1)
	shift := func(v int) int {
		if v >= iso {
			return v + 1
		}
		return v
	}
	for u := 0; u < g.N; u++ {
		for _, v := range g.Neighbors(u) {
			if u <= int(v) {
				b.AddEdge(shift(u), shift(int(v)))
			}
		}
	}
	b.AddEdge(loop, loop)
	return b.Build()
}

// TestSamplerMatchesReference checks Sample and Concat against the naive
// reference on scale-free and uniform random graphs at 1-3 hops, with
// and without a fanout limit. The queries include the smallest and the
// largest vertex id, an isolated vertex and a vertex with a self-loop.
func TestSamplerMatchesReference(t *testing.T) {
	graphs := map[string]*Graph{
		"barabasi-albert": withExtras(BarabasiAlbert(rand.New(rand.NewSource(21)), 300, 4), 150, 7),
		"erdos-renyi":     withExtras(ErdosRenyi(rand.New(rand.NewSource(22)), 300, 1200), 150, 7),
	}
	for name, g := range graphs {
		if g.Degree(150) != 0 || !g.HasEdge(7, 7) {
			t.Fatalf("%s: extras missing", name)
		}
		qrng := rand.New(rand.NewSource(23))
		queries := []int{0, g.N - 1, 150, 7}
		for len(queries) < 40 {
			queries = append(queries, qrng.Intn(g.N))
		}
		for hops := 1; hops <= 3; hops++ {
			for _, fanout := range []int{0, 3} {
				seed := int64(100*hops + fanout)
				s := NewSampler(rand.New(rand.NewSource(seed)), g, hops, fanout)
				ref := rand.New(rand.NewSource(seed))
				var batch []*Subgraph
				for _, q := range queries {
					got, want := s.Sample(q), refSample(ref, g, hops, fanout, q)
					if !sameSubgraph(got, want) {
						t.Fatalf("%s hops=%d fanout=%d: Sample(%d) differs from the reference:\n got %v %v\nwant %v %v",
							name, hops, fanout, q, got.Nodes, got.Adj.ColIdx, want.Nodes, want.Adj.ColIdx)
					}
					if batch = append(batch, got); len(batch) == 4 {
						if got, want := s.Concat(batch), refConcat(g, batch); !sameSubgraph(got, want) {
							t.Fatalf("%s hops=%d fanout=%d: Concat differs from the reference at query %d",
								name, hops, fanout, q)
						}
						batch = batch[:0]
					}
				}
			}
		}
	}
}

// TestSamplerReuse runs 500 mixed Sample and Concat calls on one sampler
// and then checks that it samples exactly what a fresh sampler does on
// the same rng stream, and that every call leaves the member set empty.
func TestSamplerReuse(t *testing.T) {
	g := BarabasiAlbert(rand.New(rand.NewSource(13)), 400, 4)
	used := NewSampler(rand.New(rand.NewSource(14)), g, 2, 3)
	empty := func(when string) {
		t.Helper()
		for i, w := range used.member {
			if w != 0 {
				t.Fatalf("%s: member word %d = %#x, want 0", when, i, w)
			}
		}
	}
	var batch []*Subgraph
	for i := 0; i < 500; i++ {
		if i%5 == 4 {
			used.Concat(batch)
			batch = batch[:0]
		} else {
			batch = append(batch, used.Sample(used.rng.Intn(g.N)))
		}
		empty(fmt.Sprintf("call %d", i))
	}
	used.rng = rand.New(rand.NewSource(15))
	fresh := NewSampler(rand.New(rand.NewSource(15)), g, 2, 3)
	for _, q := range []int{17, 18, 0, g.N - 1} {
		got, want := used.Sample(q), fresh.Sample(q)
		if !sameSubgraph(got, want) {
			t.Errorf("reused sampler differs from a fresh one at query %d:\n got %v\nwant %v", q, got.Nodes, want.Nodes)
		}
		batch = append(batch, want)
	}
	if got, want := used.Concat(batch), fresh.Concat(batch); !sameSubgraph(got, want) {
		t.Errorf("reused sampler's Concat differs from a fresh one's")
	}
	empty("after the comparison")
}

// TestSampleGolden pins the sampler's exact output — node order, CSR
// layout and fixed-point values — on a sparse and a dense stand-in, with
// and without a fanout limit, including Concat.
func TestSampleGolden(t *testing.T) {
	path := filepath.Join("testdata", "sample.golden")
	var got []string
	for _, name := range []string{"ogbl-collab", "ogbl-ddi"} {
		for _, fanout := range []int{0, 3} {
			got = append(got, fmt.Sprintf("%s fanout=%d %s", name, fanout, sampleDigest(t, name, fanout)))
		}
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if !slices.Equal(got, want) {
		t.Errorf("sampler output changed:\n got %q\nwant %q", got, want)
	}
}
