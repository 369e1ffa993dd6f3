package probrepair

import (
	"sort"

	"bigdansing/internal/graph"
	"bigdansing/internal/model"
)

// variable is one random variable of the factor graph: an equivalence
// class of cells that equality fixes tie together. Classes are sampled
// jointly (blocked Gibbs) — the intra-class equality factors are then
// satisfied by construction, and a symmetric two-cell tie shows up as a
// flat marginal (which the margin threshold routes to the fallback)
// instead of a mode the sampler happens to be stuck in.
type variable struct {
	cells  []model.Cell  // members, sorted by cell key
	domain []model.Value // candidate values, canonical order
	votes  []float64     // votes[d]: members whose original value is domain[d]
	cooc   []float64     // cooc[d]: summed per-member co-occurrence feature
	consts []float64     // consts[d]: constant-fix votes for domain[d]
	init   int           // start state: the majority original value
	// factors indexes fgraph.factors entries touching this variable.
	factors []int
}

// factor is one non-equality fix compiled as a soft rule-violation
// indicator: an assignment satisfying `left op right` scores +RuleWeight.
type factor struct {
	left       int // variable index
	op         model.Op
	rightIsVar bool
	right      int // variable index when rightIsVar
	rightConst model.Value
}

// fgraph is the compiled factor graph of one component.
type fgraph struct {
	vars     []*variable
	factors  []factor
	cellVar  map[model.CellKey]int // member cell -> variable index
	nFactors int                   // reported factor count (unaries + consts + cross)
}

// cmpValue is model.Compare with a kind tie-break: numerically equal
// cross-kind values (Int 1 vs Float 1.0) would otherwise compare equal and
// leave sort orders — and therefore sampling chains — underdetermined.
func cmpValue(a, b model.Value) int {
	if c := model.Compare(a, b); c != 0 {
		return c
	}
	return int(a.Kind) - int(b.Kind)
}

// compile builds the factor graph of one component. The construction is
// deterministic under any permutation of the fix sets: classes are ordered
// by their smallest cell key, domains canonically, and the factor list is
// sorted before indices are handed out.
func compile(component []model.FixSet, ls *learnedState, maxDomain int) *fgraph {
	// Intern cells and union the ones equality fixes connect — the same
	// class construction as the equivalence-class algorithm, so the
	// fallback's classes and ours coincide.
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
	type rawFactor struct {
		left       model.CellKey
		op         model.Op
		rightIsVar bool
		right      model.CellKey
		rightConst model.Value
	}
	constFixes := map[model.CellKey][]model.Value{}
	var raws []rawFactor
	for _, fs := range component {
		for _, c := range fs.Violation.Cells {
			intern(c)
		}
		for _, f := range fs.Fixes {
			l := intern(f.Left())
			if f.Op == model.OpEQ {
				if f.RightIsCell {
					uf.Union(l.id, intern(f.RightCell()).id)
				} else {
					k := f.Left().MapKey()
					constFixes[k] = append(constFixes[k], f.Const())
				}
				continue
			}
			raw := rawFactor{left: f.Left().MapKey(), op: f.Op}
			if f.RightIsCell {
				intern(f.RightCell())
				raw.rightIsVar = true
				raw.right = f.RightCell().MapKey()
			} else {
				raw.rightConst = f.Const()
			}
			raws = append(raws, raw)
		}
	}

	// Group into classes, sorted members, sorted class order.
	classMembers := map[int64][]*cellInfo{}
	for _, ci := range ids {
		root := uf.Find(ci.id)
		classMembers[root] = append(classMembers[root], ci)
	}
	roots := make([]int64, 0, len(classMembers))
	for root, members := range classMembers {
		sort.Slice(members, func(i, j int) bool {
			return members[i].cell.MapKey().Less(members[j].cell.MapKey())
		})
		roots = append(roots, root)
	}
	sort.Slice(roots, func(i, j int) bool {
		return classMembers[roots[i]][0].cell.MapKey().Less(classMembers[roots[j]][0].cell.MapKey())
	})

	// Component-level column co-occurrence counts: the domain-pruning pool
	// and the frequency fallback when no global table has been learned.
	type valCount struct {
		v model.Value
		n int
	}
	colCounts := map[int]map[model.ValueKey]*valCount{}
	colMax := map[int]int{}
	for _, ci := range ids {
		col := ci.cell.Col
		m := colCounts[col]
		if m == nil {
			m = map[model.ValueKey]*valCount{}
			colCounts[col] = m
		}
		vk := ci.cell.Value.MapKey()
		vc := m[vk]
		if vc == nil {
			vc = &valCount{v: ci.cell.Value}
			m[vk] = vc
		}
		vc.n++
		if vc.n > colMax[col] {
			colMax[col] = vc.n
		}
	}
	freq := func(col int, v model.Value) float64 {
		if f, ok := ls.freq(col, v); ok {
			return f
		}
		if vc, ok := colCounts[col][v.MapKey()]; ok && colMax[col] > 0 {
			return float64(vc.n) / float64(colMax[col])
		}
		return 0
	}

	// Activity: a lone cell with no constant requirement and no cross
	// factor can never change — it gets no variable (matching the
	// equivalence-class algorithm's skip), but its value still fed the
	// co-occurrence counts above.
	crossTouch := map[int64]bool{}
	for _, raw := range raws {
		crossTouch[uf.Find(ids[raw.left].id)] = true
		if raw.rightIsVar {
			crossTouch[uf.Find(ids[raw.right].id)] = true
		}
	}
	hasConst := func(members []*cellInfo) bool {
		for _, m := range members {
			if len(constFixes[m.cell.MapKey()]) > 0 {
				return true
			}
		}
		return false
	}

	g := &fgraph{cellVar: map[model.CellKey]int{}}
	varOf := map[int64]int{}
	totalConsts := 0
	for _, root := range roots {
		members := classMembers[root]
		withConst := hasConst(members)
		if len(members) == 1 && !withConst && !crossTouch[root] {
			continue
		}
		v := &variable{cells: make([]model.Cell, len(members))}
		for i, m := range members {
			v.cells[i] = m.cell
		}

		// Candidate domain. Constant fixes are hard requirements (CFD
		// patterns, unary DCs): when present the domain is the constant
		// targets alone, exactly as the equivalence-class and sampling
		// algorithms treat them.
		type cand struct {
			v     model.Value
			n     int // ranking count (const votes, or co-occurrence)
			owned bool
		}
		candIdx := map[model.ValueKey]int{}
		var cands []cand
		add := func(val model.Value, n int, owned bool) {
			vk := val.MapKey()
			if i, ok := candIdx[vk]; ok {
				cands[i].n += n
				cands[i].owned = cands[i].owned || owned
				return
			}
			candIdx[vk] = len(cands)
			cands = append(cands, cand{v: val, n: n, owned: owned})
		}
		if withConst {
			for _, m := range members {
				for _, cv := range constFixes[m.cell.MapKey()] {
					add(cv, 1, true)
				}
			}
		} else {
			for _, m := range members {
				add(m.cell.Value, 0, true) // originals are always kept
			}
			for _, m := range members {
				for _, vc := range colCounts[m.cell.Col] {
					add(vc.v, vc.n, false)
				}
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].owned != cands[j].owned {
				return cands[i].owned
			}
			if cands[i].n != cands[j].n {
				return cands[i].n > cands[j].n
			}
			return cmpValue(cands[i].v, cands[j].v) < 0
		})
		if len(cands) > maxDomain {
			cands = cands[:maxDomain]
		}
		v.domain = make([]model.Value, len(cands))
		for i, c := range cands {
			v.domain[i] = c.v
		}
		sort.Slice(v.domain, func(i, j int) bool { return cmpValue(v.domain[i], v.domain[j]) < 0 })

		// Per-value features: minimality votes, co-occurrence, constants.
		v.votes = make([]float64, len(v.domain))
		v.cooc = make([]float64, len(v.domain))
		v.consts = make([]float64, len(v.domain))
		for d, dv := range v.domain {
			for _, m := range members {
				if m.cell.Value.Equal(dv) {
					v.votes[d]++
					v.cooc[d] += 0.5
				}
				v.cooc[d] += 0.5 * freq(m.cell.Col, dv)
				for _, cv := range constFixes[m.cell.MapKey()] {
					if cv.Equal(dv) {
						v.consts[d]++
					}
				}
			}
		}
		for d := range v.domain {
			if v.votes[d] > v.votes[v.init] {
				v.init = d
			}
		}
		for _, m := range members {
			totalConsts += len(constFixes[m.cell.MapKey()])
		}

		varOf[root] = len(g.vars)
		for _, c := range v.cells {
			g.cellVar[c.MapKey()] = len(g.vars)
		}
		g.vars = append(g.vars, v)
	}

	// Cross factors: endpoints remapped to variable indices, then sorted so
	// score summation order (and its floating-point rounding) is stable
	// under fix-set permutation.
	for _, raw := range raws {
		f := factor{left: varOf[uf.Find(ids[raw.left].id)], op: raw.op}
		if raw.rightIsVar {
			f.rightIsVar = true
			f.right = varOf[uf.Find(ids[raw.right].id)]
		} else {
			f.rightConst = raw.rightConst
		}
		g.factors = append(g.factors, f)
	}
	sort.Slice(g.factors, func(i, j int) bool {
		a, b := g.factors[i], g.factors[j]
		if a.left != b.left {
			return a.left < b.left
		}
		if a.op != b.op {
			return a.op < b.op
		}
		if a.rightIsVar != b.rightIsVar {
			return a.rightIsVar
		}
		if a.rightIsVar {
			return a.right < b.right
		}
		return cmpValue(a.rightConst, b.rightConst) < 0
	})
	for fi, f := range g.factors {
		g.vars[f.left].factors = append(g.vars[f.left].factors, fi)
		if f.rightIsVar && f.right != f.left {
			g.vars[f.right].factors = append(g.vars[f.right].factors, fi)
		}
	}
	g.nFactors = len(g.factors) + totalConsts + 2*len(g.vars)
	return g
}
