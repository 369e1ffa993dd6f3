package repair

import (
	"math/rand"
	"sort"

	"bigdansing/internal/graph"
	"bigdansing/internal/model"
)

// Sampling is a randomized repair in the spirit of sampling FD repairs [4]:
// for each equivalence class it draws the target value at random (weighted
// by frequency) instead of always taking the majority, produces several
// complete candidate repairs, and keeps the cheapest under the exact-match
// cost of Section 2.1. With Samples=1 it degenerates to one random repair;
// as Samples grows it converges to the equivalence-class algorithm's
// minimum-cost choice while preserving the ability to explore ties — the
// use case [4] argues for (downstream consumers seeing repair uncertainty).
type Sampling struct {
	// Samples is the number of candidate repairs drawn (default 7).
	Samples int
	// Seed makes runs reproducible (default 1).
	Seed int64
	// Dis is the distance for costing; nil means UnitDistance.
	Dis DistanceFunc
}

// Name implements Algorithm.
func (s *Sampling) Name() string { return "sampling" }

// Repair implements Algorithm.
func (s *Sampling) Repair(component []model.FixSet) ([]Assignment, error) {
	samples := s.Samples
	if samples <= 0 {
		samples = 7
	}
	seed := s.Seed
	if seed == 0 {
		seed = 1
	}
	dis := s.Dis
	if dis == nil {
		dis = UnitDistance
	}

	// Build equivalence classes exactly like the equivalence-class
	// algorithm: union cells linked by equality fixes.
	type cellInfo struct {
		cell model.Cell
		id   int64
	}
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
	consts := map[model.CellKey][]model.Value{}
	for _, fs := range component {
		for _, c := range fs.Violation.Cells {
			intern(c)
		}
		for _, f := range fs.Fixes {
			if f.Op != model.OpEQ {
				continue
			}
			l := intern(f.Left())
			if f.RightIsCell {
				uf.Union(l.id, intern(f.RightCell()).id)
			} else {
				consts[f.Left().MapKey()] = append(consts[f.Left().MapKey()], f.Const())
			}
		}
	}
	classes := map[int64][]*cellInfo{}
	for _, ci := range ids {
		classes[uf.Find(ci.id)] = append(classes[uf.Find(ci.id)], ci)
	}
	// Deterministic class and member order for reproducibility (ids is a
	// map, so both orders would otherwise vary run to run and perturb the
	// weighted draws).
	reps := make([]int64, 0, len(classes))
	for rep, members := range classes {
		reps = append(reps, rep)
		sort.Slice(members, func(i, j int) bool { return members[i].id < members[j].id })
	}
	sort.Slice(reps, func(i, j int) bool { return reps[i] < reps[j] })

	r := rand.New(rand.NewSource(seed))
	var best []Assignment
	bestCost := -1.0
	for sample := 0; sample < samples; sample++ {
		var cur []Assignment
		cost := 0.0
		for _, rep := range reps {
			members := classes[rep]
			// Candidate pool: member values (weight 1 each) and constants
			// (hard requirements, weighted above everything).
			type cand struct {
				v model.Value
				w int
			}
			var cands, constCands []cand
			bumpIn := func(pool *[]cand, v model.Value, by int) {
				for i := range *pool {
					if (*pool)[i].v.Equal(v) {
						(*pool)[i].w += by
						return
					}
				}
				*pool = append(*pool, cand{v: v, w: by})
			}
			for _, m := range members {
				bumpIn(&cands, m.cell.Value, 1)
				for _, cv := range consts[m.cell.MapKey()] {
					bumpIn(&constCands, cv, 1)
				}
			}
			// Constants are hard requirements (CFD patterns, unary DCs):
			// when present, the target is drawn from them alone.
			if len(constCands) > 0 {
				cands = constCands
			} else if len(members) == 1 {
				continue
			}
			total := 0
			for _, c := range cands {
				total += c.w
			}
			pickAt := r.Intn(total)
			var target model.Value
			for _, c := range cands {
				if pickAt < c.w {
					target = c.v
					break
				}
				pickAt -= c.w
			}
			for _, m := range members {
				if !m.cell.Value.Equal(target) {
					cur = append(cur, Assignment{TupleID: m.cell.TupleID, Col: m.cell.Col, Value: target})
					cost += dis(m.cell.Value, target)
				}
			}
		}
		if bestCost < 0 || cost < bestCost {
			best, bestCost = cur, cost
		}
	}
	sortAssignments(best)
	return best, nil
}
