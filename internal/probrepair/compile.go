package probrepair

import (
	"slices"
	"sort"

	"bigdansing/internal/model"
	"bigdansing/internal/repair"
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
	// The classes are the equivalence-class algorithm's own, so the
	// fallback's classes and ours coincide. Every other cell the component
	// touches — a violation cell, a cell of a non-equality fix — is a class
	// of its own.
	classes, constFixes := repair.EquivalenceClasses(component)
	classOf := map[model.CellKey]int{} // member cell -> class index, once classes are sorted
	for _, class := range classes {
		for _, c := range class {
			classOf[c.MapKey()] = 0
		}
	}
	single := func(c model.Cell) {
		if _, ok := classOf[c.MapKey()]; !ok {
			classOf[c.MapKey()] = 0
			classes = append(classes, []model.Cell{c})
		}
	}
	type rawFactor struct {
		left       model.CellKey
		op         model.Op
		rightIsVar bool
		right      model.CellKey
		rightConst model.Value
	}
	var raws []rawFactor
	for _, fs := range component {
		for _, c := range fs.Violation.Cells {
			single(c)
		}
		for _, f := range fs.Fixes {
			if f.Op == model.OpEQ {
				continue
			}
			single(f.Left())
			raw := rawFactor{left: f.Left().MapKey(), op: f.Op}
			if f.RightIsCell {
				single(f.RightCell())
				raw.rightIsVar = true
				raw.right = f.RightCell().MapKey()
			} else {
				raw.rightConst = f.Const()
			}
			raws = append(raws, raw)
		}
	}

	// Sorted members, classes in the order of their smallest member.
	for _, class := range classes {
		slices.SortFunc(class, func(a, b model.Cell) int { return a.MapKey().Compare(b.MapKey()) })
	}
	slices.SortFunc(classes, func(a, b []model.Cell) int { return a[0].MapKey().Compare(b[0].MapKey()) })
	for ci, class := range classes {
		for _, c := range class {
			classOf[c.MapKey()] = ci
		}
	}

	// Component-level column co-occurrence counts: the domain-pruning pool
	// and the frequency fallback when no global table has been learned.
	type valCount struct {
		v model.Value
		n int
	}
	colCounts := map[int]map[model.ValueKey]*valCount{}
	colMax := map[int]int{}
	for _, class := range classes {
		for _, c := range class {
			m := colCounts[c.Col]
			if m == nil {
				m = map[model.ValueKey]*valCount{}
				colCounts[c.Col] = m
			}
			vc := m[c.Value.MapKey()]
			if vc == nil {
				vc = &valCount{v: c.Value}
				m[c.Value.MapKey()] = vc
			}
			vc.n++
			colMax[c.Col] = max(colMax[c.Col], vc.n)
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
	crossTouch := map[int]bool{}
	for _, raw := range raws {
		crossTouch[classOf[raw.left]] = true
		if raw.rightIsVar {
			crossTouch[classOf[raw.right]] = true
		}
	}
	hasConst := func(members []model.Cell) bool {
		for _, m := range members {
			if len(constFixes[m.MapKey()]) > 0 {
				return true
			}
		}
		return false
	}

	g := &fgraph{cellVar: map[model.CellKey]int{}}
	varOf := map[int]int{}
	totalConsts := 0
	for ci, members := range classes {
		withConst := hasConst(members)
		if len(members) == 1 && !withConst && !crossTouch[ci] {
			continue
		}
		v := &variable{cells: members}

		// Candidate domain. Constant fixes are hard requirements (CFD
		// patterns, unary DCs): when present the domain is the constant
		// targets alone, exactly as the equivalence-class algorithm treats
		// them.
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
				for _, cv := range constFixes[m.MapKey()] {
					add(cv, 1, true)
				}
			}
		} else {
			for _, m := range members {
				add(m.Value, 0, true) // originals are always kept
			}
			for _, m := range members {
				for _, vc := range colCounts[m.Col] {
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
				if m.Value.Equal(dv) {
					v.votes[d]++
					v.cooc[d] += 0.5
				}
				v.cooc[d] += 0.5 * freq(m.Col, dv)
				for _, cv := range constFixes[m.MapKey()] {
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
			totalConsts += len(constFixes[m.MapKey()])
		}

		varOf[ci] = len(g.vars)
		for _, c := range v.cells {
			g.cellVar[c.MapKey()] = len(g.vars)
		}
		g.vars = append(g.vars, v)
	}

	// Cross factors: endpoints remapped to variable indices, then sorted so
	// score summation order (and its floating-point rounding) is stable
	// under fix-set permutation.
	for _, raw := range raws {
		f := factor{left: varOf[classOf[raw.left]], op: raw.op}
		if raw.rightIsVar {
			f.rightIsVar = true
			f.right = varOf[classOf[raw.right]]
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
