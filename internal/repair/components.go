package repair

import (
	"math/bits"
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
	return unionByCells(fixSets, &cellOwners{rows: map[int64]int32{}}, newMinRootUF(len(fixSets)))
}

// ownerSlots gives every cell an int32 owner slot, -1 until set. A slot
// is valid until the next call.
type ownerSlots interface {
	slot(c model.Cell) *int32
}

// unionByCells is fixSetComponents' pass, over the owner slots of owners
// and the union-find uf of one element per fix set: it returns uf's labels.
func unionByCells[O ownerSlots](fixSets []model.FixSet, owners O, uf minRootUF) []int32 {
	touch := func(i int32, c model.Cell) {
		switch slot := owners.slot(c); *slot {
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
// index order within a key: key k's indexes are order[at[k]:at[k+1]]. The
// result reuses order's and at's arrays (nil for new ones).
func countingSort(keys []int32, n int, order, at []int32) ([]int32, []int32) {
	at = grown(at, n+2) // counts sit one slot right of the starts, so placing leaves the starts
	for _, k := range keys {
		at[k+2]++
	}
	for k := 2; k < n+2; k++ {
		at[k] += at[k-1]
	}
	order = grown(order, len(keys))
	for i, k := range keys {
		order[at[k+1]] = int32(i)
		at[k+1]++
	}
	return order, at[:n+1]
}

// grown returns s resized to n zeroed elements, in its own array when it
// has the room.
func grown(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// cellIDs interns cells to dense IDs in first-seen order: an
// open-addressing table (linear probing) of ID+1 over the dense key list,
// kept at most half full. It is scratch memory: reset empties it for the
// next component or block at a cost of the keys it holds, so one table
// serves many.
type cellIDs struct {
	keys  []model.CellKey
	slots []int32 // ID+1 per slot, 0 when empty; a power of two long
	shift uint8   // 64 - log2(len(slots))
}

// id returns c's ID, and whether this call interned it.
func (t *cellIDs) id(c model.Cell) (int32, bool) {
	k := c.MapKey()
	if 2*(len(t.keys)+1) > len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	for s := t.home(k); ; s = (s + 1) & mask {
		switch v := t.slots[s]; {
		case v == 0:
			t.keys = append(t.keys, k)
			t.slots[s] = int32(len(t.keys))
			return int32(len(t.keys) - 1), true
		case t.keys[v-1] == k:
			return v - 1, false
		}
	}
}

// home is k's first probe slot: a multiplicative hash's top bits.
func (t *cellIDs) home(k model.CellKey) int {
	return int((uint64(k.TupleID)*0x9e3779b97f4a7c15 + uint64(k.Col)) * 0xbf58476d1ce4e5b9 >> t.shift)
}

// grow doubles the table (64 slots at first) and re-inserts the keys.
func (t *cellIDs) grow() {
	n := max(64, 2*len(t.slots))
	t.slots, t.shift = make([]int32, n), uint8(64-bits.TrailingZeros(uint(n)))
	for i, k := range t.keys {
		s := t.home(k)
		for t.slots[s] != 0 {
			s = (s + 1) & (n - 1)
		}
		t.slots[s] = int32(i + 1)
	}
}

// reset empties the table. A table much larger than its keys clears only
// their slots, each found from its home slot (clearing may have emptied
// slots of its probe run, so the walk looks for the ID, not for a gap).
func (t *cellIDs) reset() {
	if len(t.slots) <= 8*len(t.keys) {
		clear(t.slots)
	} else {
		mask := len(t.slots) - 1
		for i, k := range t.keys {
			s := t.home(k)
			for t.slots[s] != int32(i+1) {
				s = (s + 1) & mask
			}
			t.slots[s] = 0
		}
	}
	t.keys = t.keys[:0]
}

// blockOwners are owner slots for the cells of one block at a time: a
// cellIDs table and one slot per ID, emptied by reset, so a pool worker
// reuses them from block to block.
type blockOwners struct {
	cells cellIDs
	owner []int32
}

func (b *blockOwners) slot(c model.Cell) *int32 {
	id, fresh := b.cells.id(c)
	if fresh {
		b.owner = append(b.owner, -1)
	}
	return &b.owner[id]
}

func (b *blockOwners) reset() {
	b.cells.reset()
	b.owner = b.owner[:0]
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
