package graph

import (
	"sort"
)

// HyperedgeOf is one edge of a hypergraph: an identifier plus the set of
// node keys it covers, generic over any comparable node type. In the repair
// layer a hyperedge is a violation and the nodes are the cells ("elements")
// its possible fixes touch (Section 5.1) — keyed by model.CellKey rather
// than a rendered string, so building the graph allocates no per-cell
// strings.
type HyperedgeOf[N comparable] struct {
	ID    int64
	Nodes []N
}

// HypergraphOf is a set of hyperedges over comparable-keyed nodes.
type HypergraphOf[N comparable] struct {
	Edges []HyperedgeOf[N]
}

// NewHypergraphOf builds a hypergraph over any comparable node type.
func NewHypergraphOf[N comparable](edges []HyperedgeOf[N]) *HypergraphOf[N] {
	return &HypergraphOf[N]{Edges: edges}
}

// PartitionKWay splits the hyperedges into k balanced parts, a greedy
// stand-in for multilevel k-way hypergraph partitioning [22]: hyperedges are
// placed largest-first on the part sharing the most nodes with them
// (minimizing cut), subject to a balance cap of ceil(|E|/k)+1 edges.
// The paper invokes this when a connected component is too large for one
// repair worker's memory (Section 5.1).
func (h *HypergraphOf[N]) PartitionKWay(k int) [][]HyperedgeOf[N] {
	if k <= 1 || len(h.Edges) <= 1 {
		return [][]HyperedgeOf[N]{append([]HyperedgeOf[N](nil), h.Edges...)}
	}
	if k > len(h.Edges) {
		k = len(h.Edges)
	}
	capPerPart := (len(h.Edges)+k-1)/k + 1

	order := make([]int, len(h.Edges))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(h.Edges[order[a]].Nodes) > len(h.Edges[order[b]].Nodes)
	})

	parts := make([][]HyperedgeOf[N], k)
	nodeParts := make([]map[N]int, k) // node -> times seen in part
	for i := range nodeParts {
		nodeParts[i] = make(map[N]int)
	}
	for _, ei := range order {
		e := h.Edges[ei]
		best, bestShared := -1, -1
		for p := 0; p < k; p++ {
			if len(parts[p]) >= capPerPart {
				continue
			}
			shared := 0
			for _, n := range e.Nodes {
				if nodeParts[p][n] > 0 {
					shared++
				}
			}
			if shared > bestShared || (shared == bestShared && (best == -1 || len(parts[p]) < len(parts[best]))) {
				best, bestShared = p, shared
			}
		}
		if best == -1 { // all at cap (can happen from the +1 slack); least loaded
			best = 0
			for p := 1; p < k; p++ {
				if len(parts[p]) < len(parts[best]) {
					best = p
				}
			}
		}
		parts[best] = append(parts[best], e)
		for _, n := range e.Nodes {
			nodeParts[best][n]++
		}
	}
	// Drop empty parts.
	out := parts[:0]
	for _, p := range parts {
		if len(p) > 0 {
			out = append(out, p)
		}
	}
	return out
}

// Cut counts the nodes appearing in more than one of the given parts — the
// quantity the partitioner heuristically minimizes and the number of cells
// at risk of contradictory repairs (Example 2).
func Cut[N comparable](parts [][]HyperedgeOf[N]) int {
	seenIn := make(map[N]int)
	for pi, p := range parts {
		mark := pi + 1
		seen := make(map[N]bool)
		for _, e := range p {
			for _, n := range e.Nodes {
				if seen[n] {
					continue
				}
				seen[n] = true
				if prev, ok := seenIn[n]; !ok {
					seenIn[n] = mark
				} else if prev != mark && prev != -1 {
					seenIn[n] = -1
				}
			}
		}
	}
	cut := 0
	for _, v := range seenIn {
		if v == -1 {
			cut++
		}
	}
	return cut
}
