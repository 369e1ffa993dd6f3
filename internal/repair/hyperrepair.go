package repair

import (
	"math"
	"sort"
	"strconv"
	"strings"

	"bigdansing/internal/model"
)

// Hypergraph is the greedy hypergraph-based repair algorithm in the spirit
// of Holistic Data Cleaning [6], which BigDansing uses for denial
// constraints with ordering comparisons: repeatedly pick the cell covering
// the most unresolved violations (a greedy vertex cover of the violation
// hypergraph) and assign it a value that satisfies as many of its fixes as
// possible. Where the original uses quadratic programming to place numeric
// values, this implementation scores a bounded sample of candidate values
// (always including the extremes, which satisfy one-sided inequality sets
// outright) — the approximation the evaluation's Table 4 measures by
// distance to the ground truth rather than by exact match.
//
// Each component's cells are interned to dense IDs once. Changing a cell
// only affects the violations whose fixes reference it, so a pick scores
// its candidates against those fixes alone, and picks come off a degree
// heap: each pick costs its cell's degree times the candidates, plus a
// logarithm of the component size.
type Hypergraph struct {
	// Epsilon is the nudge applied to satisfy strict inequalities on
	// numeric cells (default 1).
	Epsilon float64
	// MaxCandidates bounds the distinct candidate values scored per pick
	// (default 32, at least 2); the sample always includes the minimum and
	// maximum.
	MaxCandidates int
}

// Name implements Algorithm.
func (h *Hypergraph) Name() string { return "hypergraph" }

// Repair implements Algorithm.
func (h *Hypergraph) Repair(component []model.FixSet) ([]Assignment, error) {
	eps := h.Epsilon
	if eps == 0 {
		eps = 1
	}
	maxCand := h.MaxCandidates
	if maxCand <= 0 {
		maxCand = 32
	}

	g := compileHyper(component)

	// Initial resolution state and per-cell degrees: a cell's degree counts
	// the unresolved fix sets whose fixes reference it.
	resolved := make([]bool, len(component))
	unresolvedCount := 0
	degree := make([]int32, len(g.cells))
	for s := range component {
		if !g.unresolved(s) {
			resolved[s] = true // resolved already, or no fixes: unrepairable
			continue
		}
		unresolvedCount++
		for _, c := range g.setCells[g.setOff[s]:g.setOff[s+1]] {
			degree[c]++
		}
	}

	var out []Assignment
	var buf []model.Value
	var live []pickFix
	picks := newDegreeHeap(g.cells, degree)
	for unresolvedCount > 0 {
		// The unassigned cell with the highest degree.
		pick, ok := picks.pop(degree)
		if !ok {
			break // nothing left that could resolve anything
		}

		// The fixes of unresolved fix sets that reference pick, and the
		// candidate value each proposes.
		live, buf = live[:0], buf[:0]
		for _, fi := range g.refs[g.refOff[pick]:g.refOff[pick+1]] {
			if resolved[g.fixSet[fi]] {
				continue
			}
			p := g.orient(pick, fi)
			live = append(live, p)
			if v, ok := valueSatisfying(p.op, p.other, eps); ok {
				buf = append(buf, v)
			}
		}
		candidates := sampleCandidates(buf, maxCand)
		if len(candidates) == 0 {
			continue // cannot move this cell; try others
		}

		// Score candidates against the touched unresolved fix sets. Every
		// fix of an unresolved set is false and only pick changes, so a set
		// resolves exactly when one of its fixes referencing pick holds:
		// only live needs evaluating.
		prev := g.current[pick]
		bestVal, bestScore := prev, -1
		for _, cand := range candidates {
			score := 0
			resolvedBy(live, cand, func(int32) { score++ })
			if score > bestScore || (score == bestScore && model.Compare(cand, bestVal) < 0) {
				bestVal, bestScore = cand, score
			}
		}
		g.current[pick] = bestVal
		if !bestVal.Equal(prev) {
			c := g.cells[pick]
			out = append(out, Assignment{TupleID: c.TupleID, Col: c.Col, Value: bestVal})
		}

		// Update resolution state and degrees for the touched fix sets.
		resolvedBy(live, bestVal, func(s int32) {
			resolved[s] = true
			unresolvedCount--
			for _, c := range g.setCells[g.setOff[s]:g.setOff[s+1]] {
				degree[c]--
			}
		})
	}
	out = dedupeAssignments(out)
	sortAssignments(out)
	return out, nil
}

// hyperFix is one fix over dense cell IDs. A right operand below zero is
// the constant konsts[^right].
type hyperFix struct {
	left, right int32
	op          model.Op
}

// hyperInstance is one component compiled onto dense cell IDs: every cell
// the component mentions is interned once, and the fixes, the fix sets'
// distinct cells and the per-cell fix references become flat slabs.
type hyperInstance struct {
	cells   []model.Cell  // per ID: the last occurrence in component order
	current []model.Value // per ID: the value the greedy has so far
	fixes   []hyperFix    // fix sets' fixes, contiguous per set
	konsts  []model.Value // the constant right operands
	fixOff  []int32       // fix set s owns fixes[fixOff[s]:fixOff[s+1]]
	fixSet  []int32       // per fix: its fix set
	// setCells[setOff[s]:setOff[s+1]] are the distinct cells of fix set
	// s's fixes; refs[refOff[c]:refOff[c+1]] are the fixes referencing cell
	// c, ascending (so grouped by fix set), each listed once.
	setCells, setOff []int32
	refs, refOff     []int32
}

// compileHyper interns a component's cells in one pass. As with a map
// written in component order, a cell's value and metadata are those of its
// last occurrence.
func compileHyper(component []model.FixSet) *hyperInstance {
	nFixes := 0
	for _, fs := range component {
		nFixes += len(fs.Fixes)
	}
	g := &hyperInstance{
		fixes:    make([]hyperFix, 0, nFixes),
		fixOff:   make([]int32, 1, len(component)+1),
		fixSet:   make([]int32, 0, nFixes),
		setCells: make([]int32, 0, 2*nFixes),
		setOff:   make([]int32, 1, len(component)+1),
	}
	ids := map[model.CellKey]int32{}
	var stamp []int32 // per ID: 1 + the last fix set that listed it in setCells
	intern := func(c model.Cell) int32 {
		k := c.MapKey()
		id, ok := ids[k]
		if !ok {
			id = int32(len(g.cells))
			ids[k] = id
			g.cells = append(g.cells, c)
			stamp = append(stamp, 0)
			return id
		}
		g.cells[id] = c
		return id
	}
	note := func(s int, id int32) {
		if stamp[id] != int32(s)+1 {
			stamp[id] = int32(s) + 1
			g.setCells = append(g.setCells, id)
		}
	}
	for s, fs := range component {
		for _, c := range fs.Violation.Cells {
			intern(c)
		}
		for _, f := range fs.Fixes {
			hf := hyperFix{left: intern(f.Left()), op: f.Op}
			note(s, hf.left)
			if f.RightIsCell {
				hf.right = intern(f.RightCell())
				note(s, hf.right)
			} else {
				hf.right = ^int32(len(g.konsts))
				g.konsts = append(g.konsts, f.Const())
			}
			g.fixes = append(g.fixes, hf)
			g.fixSet = append(g.fixSet, int32(s))
		}
		g.fixOff = append(g.fixOff, int32(len(g.fixes)))
		g.setOff = append(g.setOff, int32(len(g.setCells)))
	}
	g.current = make([]model.Value, len(g.cells))
	for id, c := range g.cells {
		g.current[id] = c.Value
	}

	// Per-cell fix references, counted then filled in fix order.
	g.refOff = make([]int32, len(g.cells)+1)
	for _, f := range g.fixes {
		g.refOff[f.left+1]++
		if f.right >= 0 && f.right != f.left {
			g.refOff[f.right+1]++
		}
	}
	for i := 1; i < len(g.refOff); i++ {
		g.refOff[i] += g.refOff[i-1]
	}
	g.refs = make([]int32, g.refOff[len(g.cells)])
	next := append([]int32(nil), g.refOff[:len(g.cells)]...)
	for fi, f := range g.fixes {
		g.refs[next[f.left]] = int32(fi)
		next[f.left]++
		if f.right >= 0 && f.right != f.left {
			g.refs[next[f.right]] = int32(fi)
			next[f.right]++
		}
	}
	return g
}

// holds evaluates fix fi on the current values.
func (g *hyperInstance) holds(fi int32) bool {
	f := &g.fixes[fi]
	if f.right >= 0 {
		return f.op.Eval(g.current[f.left], g.current[f.right])
	}
	return f.op.Eval(g.current[f.left], g.konsts[^f.right])
}

// unresolved reports whether fix set s has fixes and none of them holds.
func (g *hyperInstance) unresolved(s int) bool {
	lo, hi := g.fixOff[s], g.fixOff[s+1]
	for fi := lo; fi < hi; fi++ {
		if g.holds(fi) {
			return false
		}
	}
	return lo < hi
}

// pickFix is a fix referencing the pick, oriented as pick op other; self
// marks a fix whose two sides are both the pick.
type pickFix struct {
	set   int32 // the fix's fix set
	op    model.Op
	self  bool
	other model.Value
}

// orient returns fix fi as seen from cell id, which it references.
func (g *hyperInstance) orient(id, fi int32) pickFix {
	f := &g.fixes[fi]
	p := pickFix{set: g.fixSet[fi], op: f.op}
	switch {
	case f.left != id: // id is the right operand: left op id iff id flip(op) left
		p.op, p.other = f.op.Flip(), g.current[f.left]
	case f.right == id:
		p.self, p.other = true, g.current[id]
	case f.right >= 0:
		p.other = g.current[f.right]
	default:
		p.other = g.konsts[^f.right]
	}
	return p
}

// resolvedBy calls fn once for each fix set that one of fixes (a pick's,
// grouped by set) satisfies when the pick takes value v.
func resolvedBy(fixes []pickFix, v model.Value, fn func(set int32)) {
	last := int32(-1)
	for i := range fixes {
		p := &fixes[i]
		if p.set == last {
			continue
		}
		r := p.other
		if p.self {
			r = v
		}
		if p.op.Eval(v, r) {
			last = p.set
			fn(p.set)
		}
	}
}

// degreeHeap yields cells in the greedy's pick order: degree descending,
// then CellKey ascending. Once built, degrees only fall, so an entry's
// degree bounds its cell's from above; pop refreshes a stale top in place
// and sifts it down (lazy invalidation) until the top is current, which
// makes it the true maximum.
type degreeHeap struct {
	cells []model.Cell
	ent   []heapEntry
}

type heapEntry struct{ deg, id int32 }

func newDegreeHeap(cells []model.Cell, degree []int32) *degreeHeap {
	h := &degreeHeap{cells: cells}
	for id, d := range degree {
		if d > 0 {
			h.ent = append(h.ent, heapEntry{deg: d, id: int32(id)})
		}
	}
	for i := len(h.ent)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	return h
}

// pop removes and returns the cell with the highest positive degree, or
// false when no cell has one.
func (h *degreeHeap) pop(degree []int32) (int32, bool) {
	for len(h.ent) > 0 {
		top := &h.ent[0]
		if d := degree[top.id]; d != top.deg {
			top.deg = d
			h.down(0)
			continue
		}
		if top.deg <= 0 {
			return -1, false
		}
		id := top.id
		last := len(h.ent) - 1
		h.ent[0] = h.ent[last]
		h.ent = h.ent[:last]
		h.down(0)
		return id, true
	}
	return -1, false
}

func (h *degreeHeap) before(a, b heapEntry) bool {
	if a.deg != b.deg {
		return a.deg > b.deg
	}
	return h.cells[a.id].MapKey().Less(h.cells[b.id].MapKey())
}

func (h *degreeHeap) down(i int) {
	n := len(h.ent)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && h.before(h.ent[c+1], h.ent[c]) {
			c++
		}
		if !h.before(h.ent[c], h.ent[i]) {
			return
		}
		h.ent[i], h.ent[c] = h.ent[c], h.ent[i]
		i = c
	}
}

// sampleCandidates dedupes candidate values and, when there are more than
// limit, returns an evenly spaced sample of the sorted values that always
// includes the extremes (so limit is at least 2).
func sampleCandidates(cands []model.Value, limit int) []model.Value {
	if len(cands) == 0 {
		return nil
	}
	limit = max(limit, 2)
	sort.Slice(cands, func(i, j int) bool { return model.Compare(cands[i], cands[j]) < 0 })
	uniq := cands[:1]
	for _, v := range cands[1:] {
		if !v.Equal(uniq[len(uniq)-1]) {
			uniq = append(uniq, v)
		}
	}
	if len(uniq) <= limit {
		return uniq
	}
	out := make([]model.Value, 0, limit)
	for i := 0; i < limit; i++ {
		idx := i * (len(uniq) - 1) / (limit - 1)
		out = append(out, uniq[idx])
	}
	return out
}

// valueSatisfying returns a value v with v op target, of target's kind: an
// int target is nudged by the smallest integer step of at least eps, a
// float target by eps, and a string target under ≠ gains a quote. A string
// that does not parse as a number has no neighbour under < or >, so it
// yields no candidate; a numeric string is nudged as a float. A null target
// is treated as 0.
func valueSatisfying(op model.Op, target model.Value, eps float64) (model.Value, bool) {
	switch op {
	case model.OpEQ, model.OpLE, model.OpGE:
		return target, true
	case model.OpLT:
		return nudge(target, -1, eps)
	case model.OpGT:
		return nudge(target, +1, eps)
	case model.OpNEQ:
		if target.Kind == model.KindString {
			return model.S(target.Str + "'"), true
		}
		return nudge(target, +1, eps)
	default:
		return model.Value{}, false
	}
}

// nudge moves target by eps in direction dir (±1), keeping an int an int.
func nudge(target model.Value, dir int64, eps float64) (model.Value, bool) {
	switch target.Kind {
	case model.KindInt:
		step := int64(1)
		if eps > 1 {
			step = int64(math.Ceil(eps))
		}
		return model.I(target.Int + dir*step), true
	case model.KindString:
		if _, err := strconv.ParseFloat(strings.TrimSpace(target.Str), 64); err != nil {
			return model.Value{}, false
		}
	}
	return model.F(target.Float() + float64(dir)*eps), true
}
