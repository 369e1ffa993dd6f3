package repair

import (
	"cmp"
	"slices"
	"strings"
	"sync"

	"bigdansing/internal/model"
)

// EquivalenceClass is the seminal equivalence-class repair algorithm [5]:
// cells that possible fixes require to be equal are grouped into classes,
// and each class is assigned the target value that minimizes the repair
// cost — under exact-match distance, the most frequent current value (with
// pattern constants taking precedence, since a constant fix is a hard
// requirement from a CFD or unary DC).
//
// Only equality fixes take part. Repair relies on one invariant of its
// input: every occurrence of a cell in a component carries the same value,
// since one detection reads each cell once (DESIGN.md §5b). A cell's value
// is read from its first occurrence.
type EquivalenceClass struct {
	// Prior, when set, contributes one extra vote per cell that a previous
	// repair round drove to a value (a *ClassMemory). Streaming sessions use
	// it to keep repair decisions stable across flushes; one-shot runs leave
	// it nil and behave exactly as before.
	Prior interface {
		Prefer(k model.CellKey) (model.Value, bool)
	}
}

// Name implements Algorithm.
func (e *EquivalenceClass) Name() string { return "equivalence-class" }

// cellRef names one occurrence of a cell in a component without copying
// it: side slot&1 (0 left, 1 right) of fix slot>>1 of fix set set.
type cellRef struct{ set, slot int32 }

func (r cellRef) fix(component []model.FixSet) model.Fix {
	return component[r.set].Fixes[r.slot>>1]
}

func (r cellRef) cell(component []model.FixSet) model.Cell {
	return r.fix(component).Cells()[r.slot&1]
}

// eqClasses are the equivalence classes of one component's equality fixes
// over dense cell IDs, each cell remembered by a reference to its first
// occurrence rather than a copy.
type eqClasses struct {
	first      []cellRef // per cell ID: its first occurrence
	constFixes []cellRef // every equality fix against a constant, in component order
	// Class r (a root is its class's smallest ID) is members[classAt[r]:classAt[r+1]];
	// cell c's constant fixes are constFixes[byCell[constAt[c]:constAt[c+1]]].
	members, classAt, byCell, constAt []int32

	// The construction's scratch: the cell table, the union-find and each
	// constant fix's cell.
	ids        cellIDs
	uf         minRootUF
	constCells []int32
}

// classesPool recycles eqClasses, so a component's classes cost no
// allocation once the pool holds a set as large. An eqClasses holds indexes
// and cell keys only, never the component's cells.
var classesPool = sync.Pool{New: func() any { return new(eqClasses) }}

// buildClasses interns the cells of equality fixes to dense IDs in
// first-occurrence order, unions the two sides of every cell fix on a
// min-root union-find and groups the classes, and each cell's constants, by
// counting sorts. Every equivalence-class algorithm builds its classes here.
// The classes live in pooled memory: the caller hands them back with
// release when done.
func buildClasses(component []model.FixSet) *eqClasses {
	c := classesPool.Get().(*eqClasses)
	c.ids.reset()
	c.first, c.constFixes, c.uf, c.constCells = c.first[:0], c.constFixes[:0], c.uf[:0], c.constCells[:0]
	intern := func(cell model.Cell, r cellRef) int32 {
		id, fresh := c.ids.id(cell)
		if fresh {
			c.first = append(c.first, r)
			c.uf = append(c.uf, id)
		}
		return id
	}
	for si := range component {
		for fi, f := range component[si].Fixes {
			if f.Op != model.OpEQ {
				continue
			}
			r := cellRef{int32(si), int32(fi) << 1}
			l := intern(f.Left(), r)
			if !f.RightIsCell {
				c.constCells, c.constFixes = append(c.constCells, l), append(c.constFixes, r)
				continue
			}
			r.slot |= 1
			c.uf.union(l, intern(f.RightCell(), r))
		}
	}
	n := len(c.first)
	c.byCell, c.constAt = countingSort(c.constCells, n, c.byCell, c.constAt)
	c.members, c.classAt = countingSort(c.uf.labels(), n, c.members, c.classAt)
	return c
}

// release returns the classes to the pool; c must not be used after.
func (c *eqClasses) release() { classesPool.Put(c) }

// class returns the IDs of class r's cells, ascending; it is empty unless r
// is a root.
func (c *eqClasses) class(r int) []int32 { return c.members[c.classAt[r]:c.classAt[r+1]] }

// consts returns the indexes into constFixes of cell id's constant fixes.
func (c *eqClasses) consts(id int32) []int32 { return c.byCell[c.constAt[id]:c.constAt[id+1]] }

// needsRepair reports whether class is one a repair may change: a lone cell
// without constants is never required to.
func (c *eqClasses) needsRepair(class []int32) bool {
	return len(class) > 1 || len(class) == 1 && len(c.consts(class[0])) > 0
}

// EquivalenceClasses returns the classes component's equality fixes induce
// — the classes EquivalenceClass repairs, singletons included — each in
// first-occurrence order, and the constants equality fixes require of each
// cell, in component order.
func EquivalenceClasses(component []model.FixSet) ([][]model.Cell, map[model.CellKey][]model.Value) {
	c := buildClasses(component)
	defer c.release()
	var classes [][]model.Cell
	consts := map[model.CellKey][]model.Value{}
	for r := range c.first {
		class := c.class(r)
		if len(class) == 0 {
			continue
		}
		cells := make([]model.Cell, len(class))
		for i, id := range class {
			cells[i] = c.first[id].cell(component)
			for _, j := range c.consts(id) {
				consts[cells[i].MapKey()] = append(consts[cells[i].MapKey()], c.constFixes[j].fix(component).Const())
			}
		}
		classes = append(classes, cells)
	}
	return classes, consts
}

// Repair implements Algorithm: it builds the component's classes and picks
// each class's target from its members' values, prior votes and constants.
func (e *EquivalenceClass) Repair(component []model.FixSet) ([]Assignment, error) {
	c := buildClasses(component)
	defer c.release()
	n := len(c.first)
	if n == 0 {
		return nil, nil
	}

	type vote struct {
		v     model.Value
		count int
		key   string // v's rendering, filled for the tie-break
	}
	// bump adds by votes for v to the first entry Equal to it.
	bump := func(vs []vote, v model.Value, by int) []vote {
		for i := range vs {
			if vs[i].v.Equal(v) {
				vs[i].count += by
				return vs
			}
		}
		return append(vs, vote{v: v, count: by})
	}
	var out []Assignment
	var cands, cellVotes []vote
	for r := range n {
		class := c.class(r)
		if !c.needsRepair(class) {
			continue
		}
		// Candidate values: current member values, plus prior votes and
		// constants. A constant requirement outweighs frequency: CFD
		// constants are hard, so each distinct constant of a cell weighs
		// above any possible member count.
		cands = cands[:0]
		for _, id := range class {
			cell := c.first[id].cell(component)
			cands = bump(cands, cell.Value, 1)
			if e.Prior != nil {
				if v, ok := e.Prior.Prefer(cell.MapKey()); ok {
					cands = bump(cands, v, 1)
				}
			}
			cellVotes = cellVotes[:0]
			for _, j := range c.consts(id) {
				cellVotes = bump(cellVotes, c.constFixes[j].fix(component).Const(), 1)
			}
			for _, cv := range cellVotes {
				cands = bump(cands, cv.v, cv.count+len(class))
			}
		}
		// Pick the highest count; break ties by smaller rendered value so
		// the algorithm is deterministic.
		if len(cands) > 1 {
			for i := range cands {
				cands[i].key = cands[i].v.String()
			}
			slices.SortStableFunc(cands, func(a, b vote) int {
				if c := cmp.Compare(b.count, a.count); c != 0 {
					return c
				}
				return strings.Compare(a.key, b.key)
			})
		}
		target := cands[0].v
		for _, id := range class {
			if cell := c.first[id].cell(component); !cell.Value.Equal(target) {
				out = append(out, Assignment{TupleID: cell.TupleID, Col: cell.Col, Value: target})
			}
		}
	}
	sortAssignments(out)
	return out, nil
}

// sortAssignments orders assignments deterministically, by (TupleID, Col).
// Every caller's assignments name distinct cells, so the order is total and
// an unstable sort is exact.
func sortAssignments(as []Assignment) {
	slices.SortFunc(as, func(a, b Assignment) int { return a.CellKey().Compare(b.CellKey()) })
}
