package repair

import "testing"

// unionFind is a map-based disjoint-set structure over sparse int64
// elements, union by rank: the independent oracle the component and
// equivalence-class reference tests check minRootUF's results against.
type unionFind struct {
	parent map[int64]int64
	rank   map[int64]int
}

func newUnionFind() *unionFind {
	return &unionFind{parent: make(map[int64]int64), rank: make(map[int64]int)}
}

// Add ensures x exists as its own singleton set.
func (u *unionFind) Add(x int64) {
	if _, ok := u.parent[x]; !ok {
		u.parent[x] = x
	}
}

// Find returns the representative of x's set (adding x if unknown), with
// path compression.
func (u *unionFind) Find(x int64) int64 {
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
func (u *unionFind) Union(a, b int64) {
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

// Components maps every added element to the minimum member of its set.
func (u *unionFind) Components() map[int64]int64 {
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

func TestUnionFindBasics(t *testing.T) {
	uf := newUnionFind()
	uf.Union(1, 2)
	uf.Union(3, 4)
	if uf.Find(1) != uf.Find(2) {
		t.Error("1 and 2 merged")
	}
	if uf.Find(1) == uf.Find(3) {
		t.Error("1 and 3 separate")
	}
	uf.Union(2, 3)
	if uf.Find(1) != uf.Find(4) {
		t.Error("transitive merge")
	}
	comps := uf.Components()
	for _, v := range []int64{1, 2, 3, 4} {
		if comps[v] != 1 {
			t.Errorf("component of %d = %d", v, comps[v])
		}
	}
}
