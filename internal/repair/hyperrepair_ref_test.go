package repair

import "bigdansing/internal/model"

// referenceHypergraph is the map-keyed Hypergraph.Repair that the dense-ID
// implementation replaced, kept as the oracle TestHypergraphMatchesReference
// compares against. It shares valueSatisfying and sampleCandidates with the
// production code, so a change to candidate generation applies to both.
type referenceHypergraph struct{ Hypergraph }

// Repair runs the pre-dense-ID greedy, verbatim but for the renamed
// candidateFor.
func (r *referenceHypergraph) Repair(component []model.FixSet) ([]Assignment, error) {
	h := &r.Hypergraph
	eps := h.Epsilon
	if eps == 0 {
		eps = 1
	}
	maxCand := h.MaxCandidates
	if maxCand <= 0 {
		maxCand = 32
	}

	// Current values and metadata per cell; per-cell violation index. All
	// maps key on comparable model.CellKey structs, so indexing a cell never
	// renders a string.
	current := map[model.CellKey]model.Value{}
	meta := map[model.CellKey]model.Cell{}
	touching := map[model.CellKey][]int{} // cell -> indexes of fix sets whose FIXES reference it
	for i, fs := range component {
		for _, c := range fs.Violation.Cells {
			current[c.MapKey()] = c.Value
			meta[c.MapKey()] = c
		}
		seen := map[model.CellKey]bool{}
		for _, f := range fs.Fixes {
			for _, c := range f.Cells() {
				k := c.MapKey()
				current[k] = c.Value
				meta[k] = c
				if !seen[k] {
					seen[k] = true
					touching[k] = append(touching[k], i)
				}
			}
		}
	}

	fixSatisfied := func(f model.Fix) bool {
		l := current[f.Left().MapKey()]
		r := f.Const()
		if f.RightIsCell {
			r = current[f.RightCell().MapKey()]
		}
		return f.Op.Eval(l, r)
	}
	violationResolved := func(fs model.FixSet) bool {
		for _, f := range fs.Fixes {
			if fixSatisfied(f) {
				return true
			}
		}
		return false
	}

	// Initial resolution state and per-cell degrees.
	resolved := make([]bool, len(component))
	unresolvedCount := 0
	degree := map[model.CellKey]int{}
	for i, fs := range component {
		if len(fs.Fixes) == 0 {
			resolved[i] = true // unrepairable; not our problem
			continue
		}
		if violationResolved(fs) {
			resolved[i] = true
			continue
		}
		unresolvedCount++
		seen := map[model.CellKey]bool{}
		for _, f := range fs.Fixes {
			for _, c := range f.Cells() {
				if k := c.MapKey(); !seen[k] {
					seen[k] = true
					degree[k]++
				}
			}
		}
	}

	var out []Assignment
	assigned := map[model.CellKey]bool{}
	for unresolvedCount > 0 {
		// Pick the unassigned cell with the highest degree.
		var pick model.CellKey
		best, havePick := 0, false
		for k, d := range degree {
			if assigned[k] || d <= 0 {
				continue
			}
			if !havePick || d > best || (d == best && k.Less(pick)) {
				pick, best, havePick = k, d, true
			}
		}
		if !havePick || best == 0 {
			break // nothing left that could resolve anything
		}

		// Candidate values from the unresolved violations touching pick.
		var candidates []model.Value
		for _, vi := range touching[pick] {
			if resolved[vi] {
				continue
			}
			for _, f := range component[vi].Fixes {
				if v, ok := h.referenceCandidateFor(pick, f, current, eps); ok {
					candidates = append(candidates, v)
				}
			}
		}
		candidates = sampleCandidates(candidates, maxCand)
		if len(candidates) == 0 {
			assigned[pick] = true // cannot move this cell; try others
			continue
		}

		// Score candidates against the touched unresolved violations only.
		prev := current[pick]
		bestVal, bestScore := prev, -1
		for _, cand := range candidates {
			current[pick] = cand
			score := 0
			for _, vi := range touching[pick] {
				if !resolved[vi] && violationResolved(component[vi]) {
					score++
				}
			}
			if score > bestScore || (score == bestScore && model.Compare(cand, bestVal) < 0) {
				bestVal, bestScore = cand, score
			}
		}
		current[pick] = bestVal
		assigned[pick] = true
		if !bestVal.Equal(prev) {
			c := meta[pick]
			out = append(out, Assignment{TupleID: c.TupleID, Col: c.Col, Value: bestVal})
		}

		// Update resolution state and degrees for the touched violations.
		for _, vi := range touching[pick] {
			if resolved[vi] {
				continue
			}
			if violationResolved(component[vi]) {
				resolved[vi] = true
				unresolvedCount--
				seen := map[model.CellKey]bool{}
				for _, f := range component[vi].Fixes {
					for _, c := range f.Cells() {
						if k := c.MapKey(); !seen[k] {
							seen[k] = true
							degree[k]--
						}
					}
				}
			}
		}
		if bestScore == 0 {
			// The pick resolved nothing; its degree entry is exhausted so
			// the loop moves on (assigned[pick] prevents reselection).
			continue
		}
	}
	out = dedupeAssignments(out)
	sortAssignments(out)
	return out, nil
}

// referenceCandidateFor derives, from one fix, a value for cell key that would
// satisfy the fix, if the fix references the cell.
func (h *Hypergraph) referenceCandidateFor(key model.CellKey, f model.Fix, current map[model.CellKey]model.Value, eps float64) (model.Value, bool) {
	if f.Left().MapKey() == key {
		target := f.Const()
		if f.RightIsCell {
			target = current[f.RightCell().MapKey()]
		}
		return valueSatisfying(f.Op, target, eps)
	}
	if f.RightIsCell && f.RightCell().MapKey() == key {
		// key is the right operand: key must satisfy left op key, i.e.
		// key flip(op) left.
		return valueSatisfying(f.Op.Flip(), current[f.Left().MapKey()], eps)
	}
	return model.Value{}, false
}
