package repair

import (
	"cmp"
	"slices"
	"strings"

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
	// Dis is the distance used for tie reporting; nil means UnitDistance.
	Dis DistanceFunc
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

// Repair implements Algorithm. It interns the cells of equality fixes to
// dense IDs, each remembered by a reference to its first occurrence rather
// than a copy, unions the two sides of every cell fix on a slice, groups
// the classes by a counting sort on their roots and picks each class's
// target from its members' values, prior votes and constants.
func (e *EquivalenceClass) Repair(component []model.FixSet) ([]Assignment, error) {
	ids := map[model.CellKey]int32{}
	var first []cellRef // per cell ID: its first occurrence
	var uf minRootUF
	var constCells []int32   // per equality fix against a constant: its cell
	var constFixes []cellRef // and the fix, in component order
	intern := func(c model.Cell, r cellRef) int32 {
		id, ok := ids[c.MapKey()]
		if !ok {
			id = int32(len(first))
			ids[c.MapKey()] = id
			first = append(first, r)
			uf = append(uf, id)
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
				constCells, constFixes = append(constCells, l), append(constFixes, r)
				continue
			}
			r.slot |= 1
			rc := intern(f.RightCell(), r)
			uf.union(l, rc)
		}
	}
	n := len(first)
	if n == 0 {
		return nil, nil
	}
	// Cell c's constant fixes are constFixes[byCell[constAt[c]:constAt[c+1]]].
	byCell, constAt := countingSort(constCells, n)
	// Class r (a root is its class's smallest ID) is members[classAt[r]:classAt[r+1]].
	root := uf.labels()
	members, classAt := countingSort(root, n)

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
		class := members[classAt[r]:classAt[r+1]]
		if len(class) == 0 || len(class) == 1 && constAt[class[0]] == constAt[class[0]+1] {
			continue // nothing requires a lone cell without constants to change
		}
		// Candidate values: current member values, plus prior votes and
		// constants. A constant requirement outweighs frequency: CFD
		// constants are hard, so each distinct constant of a cell weighs
		// above any possible member count.
		cands = cands[:0]
		for _, c := range class {
			cell := first[c].cell(component)
			cands = bump(cands, cell.Value, 1)
			if e.Prior != nil {
				if v, ok := e.Prior.Prefer(cell.MapKey()); ok {
					cands = bump(cands, v, 1)
				}
			}
			cellVotes = cellVotes[:0]
			for _, j := range byCell[constAt[c]:constAt[c+1]] {
				cellVotes = bump(cellVotes, constFixes[j].fix(component).Const(), 1)
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
		for _, c := range class {
			if cell := first[c].cell(component); !cell.Value.Equal(target) {
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
