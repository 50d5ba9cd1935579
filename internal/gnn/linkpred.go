package gnn

import (
	"math/rand"
	"sort"

	"mlimp/internal/fixed"
	"mlimp/internal/graph"
	"mlimp/internal/tensor"
)

// Link prediction: the ogbl-* tasks the paper's GNNs serve. A candidate
// edge (u, v) is scored by the cosine similarity of the two node
// embeddings the GCN produces over the query's subgraph (quant.go), and
// the AUC of those scores over true edges and random non-edges
// (SampleLinkExamples) measures how well the fixed-point pipeline
// separates them, which is how QuantizationStudy and CheckAccuracy
// verify that 16-bit quantisation preserves task quality end to end.

// LinkExample is one scored candidate.
type LinkExample struct {
	U, V  int
	Label bool // true = real edge
}

// AUC computes the area under the ROC curve of scores against labels by
// the rank statistic (probability a random positive outranks a random
// negative; ties count half).
func AUC(scores []float64, labels []bool) float64 {
	if len(scores) != len(labels) || len(scores) == 0 {
		return 0.5
	}
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })
	// Rank positives with midrank for ties.
	var sumRanks float64
	var nPos, nNeg float64
	i := 0
	for i < len(idx) {
		j := i
		for j < len(idx) && scores[idx[j]] == scores[idx[i]] {
			j++
		}
		midrank := float64(i+j-1)/2 + 1
		for k := i; k < j; k++ {
			if labels[idx[k]] {
				sumRanks += midrank
				nPos++
			} else {
				nNeg++
			}
		}
		i = j
	}
	if nPos == 0 || nNeg == 0 {
		return 0.5
	}
	return (sumRanks - nPos*(nPos+1)/2) / (nPos * nNeg)
}

// SampleLinkExamples draws an equal number of positive (real) and
// negative (random non-) edges inside one subgraph, in local indices.
// It returns fewer pairs when the subgraph is too small or dense.
func SampleLinkExamples(rng *rand.Rand, sg *graph.Subgraph, n int) []LinkExample {
	var out []LinkExample
	nodes := sg.NumNodes()
	if nodes < 3 {
		return nil
	}
	// Positives: existing nonzero adjacency entries (excluding self).
	type pair struct{ u, v int }
	var pos []pair
	for u := 0; u < nodes; u++ {
		cols, _ := sg.Adj.RowEntries(u)
		for _, c := range cols {
			if int(c) != u {
				pos = append(pos, pair{u, int(c)})
			}
		}
	}
	if len(pos) == 0 {
		return nil
	}
	for i := 0; i < n && i < len(pos); i++ {
		p := pos[rng.Intn(len(pos))]
		out = append(out, LinkExample{U: p.u, V: p.v, Label: true})
	}
	// Negatives: random pairs with no adjacency entry.
	negWanted := len(out)
	for tries := 0; negWanted > 0 && tries < 50*n; tries++ {
		u, v := rng.Intn(nodes), rng.Intn(nodes)
		if u == v || sg.Adj.At(u, v) != 0 {
			continue
		}
		out = append(out, LinkExample{U: u, V: v, Label: false})
		negWanted--
	}
	return out
}

// NodeFeatures generates deterministic pseudo-features for a subgraph's
// nodes keyed by their global ids, standing in for the datasets' real
// input features (DESIGN.md substitutions).
func NodeFeatures(sg *graph.Subgraph, dim int) *tensor.Dense {
	f := tensor.NewDense(sg.NumNodes(), dim)
	for i, global := range sg.Nodes {
		r := rand.New(rand.NewSource(int64(global)*2654435761 + 12345))
		for c := 0; c < dim; c++ {
			f.Set(i, c, fixed.FromFloat(r.NormFloat64()*0.5))
		}
	}
	return f
}
