package repair

import (
	"slices"

	"bigdansing/internal/model"
)

// fixSetComponents groups fix sets into connected components: two fix sets
// are connected when they touch a common cell (a violation cell or a fix
// cell). It returns, per fix set, the component ID — the smallest fix-set
// index in the component.
//
// One sequential pass visits every fix set's cells in index order (a fix
// whose cells are a window on its violation's adds none) and resolves each
// cell to its owner, the first fix set that touched it, in a dense table
// (cellOwners). A fix set touching an owned cell unions with its owner on a
// min-root union-find, so every pair of fix sets sharing a cell ends up
// connected and each component is rooted at its smallest index. No
// per-fix-set key list is built.
func fixSetComponents(fixSets []model.FixSet) []int32 {
	o := &cellOwners{rows: map[int64]int32{}}
	uf := newMinRootUF(len(fixSets))
	touch := func(i int32, c model.Cell) {
		switch slot := o.slot(c); *slot {
		case -1:
			*slot = i
		case i:
		default:
			uf.union(i, *slot)
		}
	}
	for i := range fixSets {
		fs := &fixSets[i]
		for _, c := range fs.Violation.Cells {
			touch(int32(i), c)
		}
		for _, f := range fs.Fixes {
			if fc := f.Cells(); !onViolation(fc, fs.Violation.Cells) {
				for _, c := range fc {
					touch(int32(i), c)
				}
			}
		}
	}
	return uf.labels()
}

// onViolation reports whether the fix cells fc are a window on the
// violation's cells vc (model.CellFixOf), which the pass has visited
// already.
func onViolation(fc, vc []model.Cell) bool {
	for k := 0; k+len(fc) <= len(vc); k++ {
		if &vc[k] == &fc[0] {
			return true
		}
	}
	return false
}

// cellOwners gives every cell an int32 owner slot, -1 until set: tuple IDs
// map to dense rows, and each column keeps a flat slice of one slot per
// row. A small direct-mapped cache of rows spares most lookups in the row
// map: a violation's cells, and the run of violations one block yields,
// keep returning to the same few tuples.
type cellOwners struct {
	rows   map[int64]int32
	recent [256]struct {
		id   int64
		row1 int32 // row+1; 0 marks an empty entry
	}
	owner [][]int32 // owner[col][row]
}

// slot returns the owner slot of c's cell.
func (o *cellOwners) slot(c model.Cell) *int32 {
	row := o.row(c.TupleID)
	for len(o.owner) <= c.Col {
		o.owner = append(o.owner, nil)
	}
	for int(row) >= len(o.owner[c.Col]) {
		o.owner[c.Col] = append(o.owner[c.Col], -1)
	}
	return &o.owner[c.Col][row]
}

func (o *cellOwners) row(id int64) int32 {
	e := &o.recent[uint64(id)%uint64(len(o.recent))]
	if e.row1 > 0 && e.id == id {
		return e.row1 - 1
	}
	row, ok := o.rows[id]
	if !ok {
		row = int32(len(o.rows))
		o.rows[id] = row
	}
	e.id, e.row1 = id, row+1
	return row
}

// minRootUF is a disjoint-set forest over the dense range [0, n) that always
// links the larger root under the smaller, so every set's root is its
// minimum member whatever order the unions arrive in.
type minRootUF []int32

func newMinRootUF(n int) minRootUF {
	u := make(minRootUF, n)
	for i := range u {
		u[i] = int32(i)
	}
	return u
}

// find returns x's root, halving the path as it walks.
func (u minRootUF) find(x int32) int32 {
	for u[x] != x {
		u[x] = u[u[x]]
		x = u[x]
	}
	return x
}

func (u minRootUF) union(a, b int32) {
	ra, rb := u.find(a), u.find(b)
	switch {
	case ra < rb:
		u[rb] = ra
	case rb < ra:
		u[ra] = rb
	}
}

// labels rewrites every entry to its root in place and returns the slice: a
// parent never exceeds its child, so one ascending pass finds each parent
// already resolved.
func (u minRootUF) labels() []int32 {
	for i, p := range u {
		u[i] = u[p]
	}
	return u
}

// countingSort orders the indexes of keys, each in [0, n), by key, keeping
// index order within a key: key k's indexes are order[at[k]:at[k+1]].
func countingSort(keys []int32, n int) (order, at []int32) {
	at = make([]int32, n+2) // counts sit one slot right of the starts, so placing leaves the starts
	for _, k := range keys {
		at[k+2]++
	}
	for k := 2; k < n+2; k++ {
		at[k] += at[k-1]
	}
	order = make([]int32, len(keys))
	for i, k := range keys {
		order[at[k+1]] = int32(i)
		at[k+1]++
	}
	return order, at[:n+1]
}

// cellKeysOfFixSet collects the distinct cells a fix set touches — the
// nodes its hyperedge covers (violation cells plus fix cells) — as sorted
// comparable keys. Only the k-way split of an oversized component needs
// them.
func cellKeysOfFixSet(fs model.FixSet) []model.CellKey {
	n := len(fs.Violation.Cells)
	for _, f := range fs.Fixes {
		n += len(f.Cells())
	}
	out := make([]model.CellKey, 0, n)
	add := func(c model.Cell) {
		k := c.MapKey()
		for _, have := range out {
			if have == k {
				return
			}
		}
		out = append(out, k)
	}
	for _, c := range fs.Violation.Cells {
		add(c)
	}
	for _, f := range fs.Fixes {
		for _, c := range f.Cells() {
			add(c)
		}
	}
	slices.SortFunc(out, model.CellKey.Compare)
	return out
}
