package repair

import (
	"slices"
	"sort"

	"bigdansing/internal/graph"
	"bigdansing/internal/model"
)

// EquivalenceClass is the seminal equivalence-class repair algorithm [5]:
// cells that possible fixes require to be equal are grouped into classes,
// and each class is assigned the target value that minimizes the repair
// cost — under exact-match distance, the most frequent current value (with
// pattern constants taking precedence, since a constant fix is a hard
// requirement from a CFD or unary DC).
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

// cellInfo tracks one element seen in the component.
type cellInfo struct {
	cell model.Cell
	id   int64 // dense union-find id
}

// Repair implements Algorithm.
func (e *EquivalenceClass) Repair(component []model.FixSet) ([]Assignment, error) {
	// Collect cells and union the ones equality fixes connect; cells are
	// interned on their comparable key, never a rendered string.
	ids := map[model.CellKey]*cellInfo{}
	uf := graph.NewUnionFind()
	next := int64(0)
	intern := func(c model.Cell) *cellInfo {
		k := c.MapKey()
		if ci, ok := ids[k]; ok {
			return ci
		}
		ci := &cellInfo{cell: c, id: next}
		next++
		ids[k] = ci
		uf.Add(ci.id)
		return ci
	}
	// constPref[classRep] accumulates constant requirements.
	type constVote struct {
		v     model.Value
		count int
	}
	constVotes := map[model.CellKey][]constVote{} // keyed by cell pre-union; resolved later

	for _, fs := range component {
		for _, c := range fs.Violation.Cells {
			intern(c)
		}
		for _, f := range fs.Fixes {
			if f.Op != model.OpEQ {
				continue // the equivalence class algorithm consumes equality fixes
			}
			l := intern(f.Left())
			if f.RightIsCell {
				r := intern(f.RightCell())
				uf.Union(l.id, r.id)
			} else {
				k := f.Left().MapKey()
				votes := constVotes[k]
				found := false
				for i := range votes {
					if votes[i].v.Equal(f.Const()) {
						votes[i].count++
						found = true
						break
					}
				}
				if !found {
					votes = append(votes, constVote{v: f.Const(), count: 1})
				}
				constVotes[k] = votes
			}
		}
	}

	// Group cells by class representative.
	classes := map[int64][]*cellInfo{}
	for _, ci := range ids {
		classes[uf.Find(ci.id)] = append(classes[uf.Find(ci.id)], ci)
	}

	var out []Assignment
	for _, members := range classes {
		if len(members) == 0 {
			continue
		}
		// Candidate values: current member values, plus constants.
		type cand struct {
			v     model.Value
			count int
		}
		var cands []cand
		bump := func(v model.Value, by int) {
			for i := range cands {
				if cands[i].v.Equal(v) {
					cands[i].count += by
					return
				}
			}
			cands = append(cands, cand{v: v, count: by})
		}
		for _, m := range members {
			bump(m.cell.Value, 1)
			if e.Prior != nil {
				if v, ok := e.Prior.Prefer(m.cell.MapKey()); ok {
					bump(v, 1)
				}
			}
			for _, cv := range constVotes[m.cell.MapKey()] {
				// A constant requirement outweighs frequency: CFD constants
				// are hard. Weight it above any possible member count.
				bump(cv.v, cv.count+len(members))
			}
		}
		if len(members) == 1 && len(constVotes[members[0].cell.MapKey()]) == 0 {
			continue // nothing requires this lone cell to change
		}
		// Pick the highest count; break ties by smaller rendered value so
		// the algorithm is deterministic.
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].count != cands[j].count {
				return cands[i].count > cands[j].count
			}
			return cands[i].v.String() < cands[j].v.String()
		})
		target := cands[0].v
		for _, m := range members {
			if !m.cell.Value.Equal(target) {
				out = append(out, Assignment{
					TupleID: m.cell.TupleID,
					Col:     m.cell.Col,
					Value:   target,
				})
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
