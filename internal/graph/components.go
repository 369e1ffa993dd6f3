// Package graph provides the graph substrate BigDansing's repair layer
// needs: a union-find over sparse int64 elements and a greedy k-way
// hypergraph partitioner standing in for multilevel partitioning [22].
package graph

// UnionFind is a sequential disjoint-set structure over sparse int64
// elements; it is also the oracle the repair layer's component tests
// compare against.
type UnionFind struct {
	parent map[int64]int64
	rank   map[int64]int
}

// NewUnionFind creates an empty structure.
func NewUnionFind() *UnionFind {
	return &UnionFind{parent: make(map[int64]int64), rank: make(map[int64]int)}
}

// Add ensures x exists as its own singleton set.
func (u *UnionFind) Add(x int64) {
	if _, ok := u.parent[x]; !ok {
		u.parent[x] = x
	}
}

// Find returns the representative of x's set (adding x if unknown), with
// path compression.
func (u *UnionFind) Find(x int64) int64 {
	u.Add(x)
	root := x
	for u.parent[root] != root {
		root = u.parent[root]
	}
	for u.parent[x] != root {
		u.parent[x], x = root, u.parent[x]
	}
	return root
}

// Union merges the sets of a and b.
func (u *UnionFind) Union(a, b int64) {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
}

// Components groups all added elements by canonical representative, where
// the representative reported is the minimum member.
func (u *UnionFind) Components() map[int64]int64 {
	mins := make(map[int64]int64)
	for x := range u.parent {
		r := u.Find(x)
		if cur, ok := mins[r]; !ok || x < cur {
			mins[r] = x
		}
	}
	out := make(map[int64]int64, len(u.parent))
	for x := range u.parent {
		out[x] = mins[u.Find(x)]
	}
	return out
}
