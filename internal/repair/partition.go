package repair

import (
	"cmp"
	"slices"

	"bigdansing/internal/model"
)

// partitionKWay splits the hyperedges of an oversized component — edge i
// covers the cells edges[i] — into at most k balanced parts of edge indexes,
// a greedy stand-in for multilevel k-way hypergraph partitioning [22]:
// hyperedges are placed largest-first on the part sharing the most cells
// with them (minimizing the cut), subject to a balance cap of ceil(|E|/k)+1
// edges. The paper invokes this when a connected component is too large for
// one repair worker's memory (Section 5.1).
func partitionKWay(edges [][]model.CellKey, k int) [][]int {
	order := make([]int, len(edges))
	for i := range order {
		order[i] = i
	}
	if k <= 1 || len(edges) <= 1 {
		return [][]int{order}
	}
	k = min(k, len(edges))
	capPerPart := (len(edges)+k-1)/k + 1
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(len(edges[b]), len(edges[a])) })

	parts := make([][]int, k)
	inPart := make([]map[model.CellKey]bool, k)
	for i := range inPart {
		inPart[i] = make(map[model.CellKey]bool)
	}
	for _, ei := range order {
		best, bestShared := -1, -1
		for p := range k {
			if len(parts[p]) >= capPerPart {
				continue
			}
			shared := 0
			for _, c := range edges[ei] {
				if inPart[p][c] {
					shared++
				}
			}
			if shared > bestShared || (shared == bestShared && len(parts[p]) < len(parts[best])) {
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
		parts[best] = append(parts[best], ei)
		for _, c := range edges[ei] {
			inPart[best][c] = true
		}
	}
	return slices.DeleteFunc(parts, func(p []int) bool { return len(p) == 0 })
}
