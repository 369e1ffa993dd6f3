// Package graph provides the graph substrate BigDansing's repair layer
// needs: union-find structures for connected components (sequential, and
// lock-free for the worker pool) and a greedy k-way hypergraph partitioner
// standing in for multilevel partitioning [22].
package graph

import "sync/atomic"

// UnionFind is a sequential disjoint-set structure over sparse int64
// elements; it is also the oracle the property tests compare the concurrent
// labeling against.
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

// ConcurrentUnionFind is a lock-free disjoint-set structure over the dense
// element range [0, n). Union links the larger root under the smaller via
// compare-and-swap, so after all unions the representative of every set is
// its minimum member, a canonical labeling independent of union order.
// Find uses path halving; every parent update is a
// CAS, so concurrent Union/Find calls from the worker pool are safe.
type ConcurrentUnionFind struct {
	parent []atomic.Int32
}

// NewConcurrentUnionFind creates n singleton sets 0..n-1.
func NewConcurrentUnionFind(n int) *ConcurrentUnionFind {
	u := &ConcurrentUnionFind{parent: make([]atomic.Int32, n)}
	for i := range u.parent {
		u.parent[i].Store(int32(i))
	}
	return u
}

// Find returns the current representative of x's set, halving the path as
// it walks. A racing Union can change the representative after Find
// returns; callers needing the final labeling call Find after all unions
// complete.
func (u *ConcurrentUnionFind) Find(x int32) int32 {
	for {
		p := u.parent[x].Load()
		if p == x {
			return x
		}
		gp := u.parent[p].Load()
		if gp == p {
			return p
		}
		// Halve: point x at its grandparent. A lost race just means another
		// worker already shortened (or re-rooted) the path.
		u.parent[x].CompareAndSwap(p, gp)
		x = gp
	}
}

// Union merges the sets of a and b, rooting the merged set at the smaller
// of the two representatives.
func (u *ConcurrentUnionFind) Union(a, b int32) {
	for {
		ra, rb := u.Find(a), u.Find(b)
		if ra == rb {
			return
		}
		if ra > rb {
			ra, rb = rb, ra
		}
		// Attach the larger root under the smaller. The CAS only succeeds
		// while rb is still a root; otherwise another union intervened and
		// the loop re-resolves both representatives.
		if u.parent[rb].CompareAndSwap(rb, ra) {
			return
		}
	}
}
