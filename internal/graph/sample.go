package graph

import (
	"math/rand"
	"slices"

	"mlimp/internal/fixed"
	"mlimp/internal/tensor"
)

// Subgraph is the k-hop neighbourhood of a query node, the unit of work
// of subgraph learning (mini-batching). Nodes holds original node ids;
// index 0 is the query node. Adj is the induced normalised adjacency over
// the local node indices.
type Subgraph struct {
	Query int
	Nodes []int32
	Adj   *tensor.CSR
}

// NumNodes returns the number of nodes in the subgraph.
func (s *Subgraph) NumNodes() int { return len(s.Nodes) }

// NNZ returns the number of nonzeros of the induced adjacency, the
// workload-size driver of the SpMM aggregation kernel.
func (s *Subgraph) NNZ() int { return s.Adj.NNZ() }

// Sampler extracts k-hop neighbourhood subgraphs with per-hop fanout
// limits, mirroring PyG's neighbor sampler (Section IV).
//
// Membership is tracked in epoch-stamped dense arrays over the mother
// graph instead of per-subgraph hash sets, and frontier and row buffers
// are reused across calls. A Sampler is therefore not safe for
// concurrent use; give each goroutine its own.
type Sampler struct {
	G       *Graph
	Hops    int
	Fanout  int // max neighbours expanded per node per hop; <=0 = all
	rng     *rand.Rand
	normAdj *tensor.CSR // cached normalised adjacency of G

	// mark[v] == epoch iff v belongs to the subgraph being built; local[v]
	// is then its local index. Bumping epoch empties the set in O(1).
	mark  []uint32
	local []int32
	epoch uint32

	visit []int32     // query, then every node in the order it was reached
	cols  []int32     // induced ColIdx being built
	vals  []fixed.Num // induced Val being built
}

// NewSampler builds a sampler over g with the given hop count and fanout.
func NewSampler(rng *rand.Rand, g *Graph, hops, fanout int) *Sampler {
	if hops < 1 {
		panic("graph: sampler needs >= 1 hop")
	}
	return &Sampler{G: g, Hops: hops, Fanout: fanout, rng: rng, normAdj: g.NormalizedAdjacency(),
		mark: make([]uint32, g.N), local: make([]int32, g.N)}
}

// nextEpoch empties the member set, clearing the stamps when the epoch
// counter wraps so no stale stamp can alias the new epoch.
func (s *Sampler) nextEpoch() {
	s.epoch++
	if s.epoch == 0 {
		clear(s.mark)
		s.epoch = 1
	}
}

// Sample extracts the k-hop subgraph around query.
func (s *Sampler) Sample(query int) *Subgraph {
	s.nextEpoch()
	q := int32(query)
	s.mark[q] = s.epoch
	visit := append(s.visit[:0], q)
	// visit[lo:hi] is the current hop's frontier; newly reached nodes are
	// appended behind it and form the next one.
	for hop, lo := 0, 0; hop < s.Hops && lo < len(visit); hop++ {
		hi := len(visit)
		for _, u := range visit[lo:hi] {
			ns := s.G.Neighbors(int(u))
			if s.Fanout > 0 && len(ns) > s.Fanout {
				for _, p := range s.rng.Perm(len(ns))[:s.Fanout] {
					visit = s.reach(visit, ns[p])
				}
				continue
			}
			for _, v := range ns {
				visit = s.reach(visit, v)
			}
		}
		lo = hi
	}
	s.visit = visit
	nodes := slices.Clone(visit)
	slices.Sort(nodes[1:])
	return &Subgraph{Query: query, Nodes: nodes, Adj: s.induced(nodes)}
}

// reach adds v to the member set and the visit list unless it is
// already a member.
func (s *Sampler) reach(visit []int32, v int32) []int32 {
	if s.mark[v] == s.epoch {
		return visit
	}
	s.mark[v] = s.epoch
	return append(visit, v)
}

// induced extracts the normalised adjacency restricted to nodes, remapped
// to local indices. Every node must be stamped with the current epoch,
// and nodes[1:] must be ascending: the mother graph's rows are sorted, so
// each induced row then comes out sorted once the local-0 column is
// emitted first.
func (s *Sampler) induced(nodes []int32) *tensor.CSR {
	for i, v := range nodes {
		s.local[v] = int32(i)
	}
	first := nodes[0]
	m := tensor.NewCSR(len(nodes), len(nodes))
	cols, vals := s.cols[:0], s.vals[:0]
	for i, u := range nodes {
		rc, rv := s.normAdj.RowEntries(int(u))
		if k, ok := slices.BinarySearch(rc, first); ok {
			cols = append(cols, 0)
			vals = append(vals, rv[k])
		}
		for k, c := range rc {
			if c != first && s.mark[c] == s.epoch {
				cols = append(cols, s.local[c])
				vals = append(vals, rv[k])
			}
		}
		m.RowPtr[i+1] = int32(len(cols))
	}
	m.ColIdx, m.Val = slices.Clone(cols), slices.Clone(vals)
	s.cols, s.vals = cols, vals
	return m
}

// SampleBatch samples one subgraph per query.
func (s *Sampler) SampleBatch(queries []int) []*Subgraph {
	out := make([]*Subgraph, len(queries))
	for i, q := range queries {
		out[i] = s.Sample(q)
	}
	return out
}

// Concat merges a batch of subgraphs into one concatenated subgraph over
// the union of their nodes (Section IV: used for highly connected graphs
// such as ogbl-ppa and ogbl-ddi where k-hop neighbourhoods overlap
// heavily). Query is taken from the first subgraph.
func (s *Sampler) Concat(batch []*Subgraph) *Subgraph {
	if len(batch) == 0 {
		panic("graph: Concat of empty batch")
	}
	s.nextEpoch()
	union := s.visit[:0]
	for _, sg := range batch {
		for _, v := range sg.Nodes {
			union = s.reach(union, v)
		}
	}
	s.visit = union
	nodes := slices.Clone(union)
	slices.Sort(nodes)
	return &Subgraph{Query: batch[0].Query, Nodes: nodes, Adj: s.induced(nodes)}
}
