package graph

import (
	"math/bits"
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
// Membership is one bitset over the mother graph. Walking its set words
// yields the members in ascending order, so the node list needs no
// sort, and building the induced adjacency clears the bits it used, so
// the set is empty again between calls. Induced rows are compacted
// without a membership branch. The frontier and row buffers are reused
// across calls. A Sampler is therefore not safe for concurrent use;
// give each goroutine its own.
type Sampler struct {
	G       *Graph
	Hops    int
	Fanout  int // max neighbours expanded per node per hop; <=0 = all
	rng     *rand.Rand
	normAdj *tensor.CSR // cached normalised adjacency of G

	// Bit v of member is set iff v belongs to the subgraph being built;
	// local[v] is then its local index.
	member []uint64
	local  []int32

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
		member: make([]uint64, (g.N+63)/64), local: make([]int32, g.N)}
}

// Sample extracts the k-hop subgraph around query.
func (s *Sampler) Sample(query int) *Subgraph {
	q := int32(query)
	visit := s.reach(s.visit[:0], q)
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
	// The query goes first and every other member follows in ascending
	// order: walk the set with the query's bit lifted.
	w, bit := &s.member[q>>6], uint64(1)<<(q&63)
	*w &^= bit
	nodes := s.members(append(make([]int32, 0, len(visit)), q))
	*w |= bit
	return &Subgraph{Query: query, Nodes: nodes, Adj: s.induced(nodes)}
}

// reach adds v to the member set and the visit list unless it is
// already a member.
func (s *Sampler) reach(visit []int32, v int32) []int32 {
	w, bit := &s.member[v>>6], uint64(1)<<(v&63)
	if *w&bit != 0 {
		return visit
	}
	*w |= bit
	return append(visit, v)
}

// members appends every member to nodes in ascending order.
func (s *Sampler) members(nodes []int32) []int32 {
	for i, w := range s.member {
		for ; w != 0; w &= w - 1 {
			nodes = append(nodes, int32(i<<6+bits.TrailingZeros64(w)))
		}
	}
	return nodes
}

// induced extracts the normalised adjacency restricted to nodes, remapped
// to local indices, and empties the member set. The member set must be
// exactly nodes, and nodes[1:] must be ascending: the mother graph's
// rows are sorted, so each induced row then comes out sorted once its
// local-0 column is moved to the front.
func (s *Sampler) induced(nodes []int32) *tensor.CSR {
	for i, v := range nodes {
		s.local[v] = int32(i)
	}
	m := tensor.NewCSR(len(nodes), len(nodes))
	cols, vals := s.cols, s.vals
	n := 0
	for i, u := range nodes {
		rc, rv := s.normAdj.RowEntries(int(u))
		cols, vals = fit(cols, n+len(rc)), fit(vals, n+len(rc))
		// Write every entry and keep it by advancing past it only when
		// its column is a member.
		start := n
		for k, c := range rc {
			cols[n], vals[n] = c, rv[k]
			n += int(s.member[c>>6] >> (c & 63) & 1)
		}
		row, q := cols[start:n], 0
		for k, c := range row {
			row[k] = s.local[c]
			if row[k] == 0 {
				q = k
			}
		}
		// Rotate the local-0 entry to the front of the row.
		if q > 0 {
			rowv := vals[start:n]
			v := rowv[q]
			copy(row[1:q+1], row[:q])
			copy(rowv[1:q+1], rowv[:q])
			row[0], rowv[0] = 0, v
		}
		m.RowPtr[i+1] = int32(n)
	}
	// Every set bit belongs to one of nodes, so zeroing their words
	// empties the set.
	for _, v := range nodes {
		s.member[v>>6] = 0
	}
	m.ColIdx, m.Val = slices.Clone(cols[:n]), slices.Clone(vals[:n])
	s.cols, s.vals = cols, vals
	return m
}

// fit returns b with at least n elements, keeping its contents.
func fit[T any](b []T, n int) []T {
	if n > len(b) {
		b = slices.Grow(b, n-len(b))
		b = b[:cap(b)]
	}
	return b
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
// heavily). Query is taken from the first subgraph; Nodes is the union
// in ascending order.
func (s *Sampler) Concat(batch []*Subgraph) *Subgraph {
	if len(batch) == 0 {
		panic("graph: Concat of empty batch")
	}
	for _, sg := range batch {
		for _, v := range sg.Nodes {
			s.member[v>>6] |= uint64(1) << (v & 63)
		}
	}
	n := 0
	for _, w := range s.member {
		n += bits.OnesCount64(w)
	}
	nodes := s.members(make([]int32, 0, n))
	return &Subgraph{Query: batch[0].Query, Nodes: nodes, Adj: s.induced(nodes)}
}
