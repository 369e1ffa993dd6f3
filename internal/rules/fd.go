// Package rules translates declarative quality rules — functional
// dependencies (FDs), conditional functional dependencies (CFDs) and denial
// constraints (DCs) — into BigDansing jobs built from the five logical
// operators, deriving the optimization hints (blocking keys, symmetry,
// ordering conditions) the physical planner exploits. It also ships the
// UDF-style rules of the evaluation: Levenshtein deduplication (φ4/φ5) and
// the similarity-plus-mapping rule φU of Example 1.
package rules

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"bigdansing/internal/core"
	"bigdansing/internal/model"
)

// FD is a functional dependency LHS -> RHS: tuples agreeing on every LHS
// attribute must agree on every RHS attribute.
type FD struct {
	ID  string
	LHS []string
	RHS []string
}

// ParseFD parses "zipcode -> city" or "providerID -> city, phone".
func ParseFD(id, spec string) (*FD, error) {
	lhsRaw, rhsRaw, ok := strings.Cut(spec, "->")
	if !ok {
		return nil, fmt.Errorf("rules: FD %s: missing '->' in %q", id, spec)
	}
	split := func(s string) []string {
		var out []string
		for _, p := range strings.Split(s, ",") {
			p = strings.TrimSpace(p)
			if p != "" {
				out = append(out, p)
			}
		}
		return out
	}
	fd := &FD{ID: id, LHS: split(lhsRaw), RHS: split(rhsRaw)}
	if len(fd.LHS) == 0 || len(fd.RHS) == 0 {
		return nil, fmt.Errorf("rules: FD %s: empty side in %q", id, spec)
	}
	return fd, nil
}

// String renders the FD.
func (fd *FD) String() string {
	return fmt.Sprintf("%s: %s -> %s", fd.ID, strings.Join(fd.LHS, ","), strings.Join(fd.RHS, ","))
}

// Compile translates the FD into a rule over the given schema — the
// automatic job generation of Section 3.1. The generated operators mirror
// Listings 1, 2, 5 and 6:
//
//	Scope   is the projection to LHS ∪ RHS, declared as the rule's Reads:
//	        the executor moves each tuple with only those cells, at their
//	        base-table columns,
//	Block   keys on the LHS values,
//	Iterate defaults to unique pairs (FD detection is symmetric),
//	Detect  reports pairs agreeing on the LHS but disagreeing on some RHS
//	        attribute — the LHS check makes Detect self-contained, so the
//	        rule stays correct even when run Detect-only (Figure 12(a)),
//	GenFix  proposes equating the two RHS values.
func (fd *FD) Compile(schema *model.Schema) (*core.Rule, error) {
	lhsIdx, err := resolveAttrs(schema, fd.LHS)
	if err != nil {
		return nil, fmt.Errorf("rules: FD %s: %w", fd.ID, err)
	}
	rhsIdx, err := resolveAttrs(schema, fd.RHS)
	if err != nil {
		return nil, fmt.Errorf("rules: FD %s: %w", fd.ID, err)
	}
	// A repeated RHS attribute states nothing new; checking it twice would
	// report each of its violations twice.
	rhsIdx = distinct(rhsIdx)
	ruleID := fd.ID

	rule := &core.Rule{
		ID:    ruleID,
		Reads: distinct(append(slices.Clone(lhsIdx), rhsIdx...)),
		Block: func(t model.Tuple) model.Value {
			// Single-attribute LHS (the common case): the cell value itself
			// is the block key — no per-record string is built.
			if len(lhsIdx) == 1 {
				return t.Cell(lhsIdx[0])
			}
			return compositeKey(t, lhsIdx)
		},
		Symmetric: true,
		Detect: func(it core.Item) []model.Violation {
			l, r := it.Left(), it.Right()
			for _, c := range lhsIdx {
				if !l.Cell(c).Equal(r.Cell(c)) {
					return nil
				}
			}
			var out []model.Violation
			for _, c := range rhsIdx {
				lv, rv := l.Cell(c), r.Cell(c)
				if lv.Equal(rv) {
					continue
				}
				v := model.NewViolation(ruleID,
					model.NewCell(l.ID, c, lv),
					model.NewCell(r.ID, c, rv),
				)
				out = append(out, v)
			}
			return out
		},
		GenFix: equateAdjacent,
	}
	rule.DetectBlock = fdBlockKernel(ruleID, lhsIdx, rhsIdx, rule.Detect)
	return rule, nil
}

// equateAdjacent is the GenFix of FD-style rules, whose violations are one
// pair of cells: it proposes equating the two, as a fix on the violation's
// own cells.
func equateAdjacent(v model.Violation) []model.Fix {
	if len(v.Cells) < 2 {
		return nil
	}
	return []model.Fix{model.CellFixOf(v.Cells[:2:2], model.OpEQ)}
}

// fdBlockKernel builds the FD's block kernel, which costs O(members +
// violations) instead of O(pairs). Every member of a block agrees on the
// LHS: a single-attribute LHS blocks on the exact ValueKey, and a composite
// LHS is checked to hold one ValueKey per column (its joined key string can
// collide). So the kernel splits the block, per RHS attribute, into
// sub-groups of Equal values, then visits only the pairs whose members lie
// in different sub-groups of some RHS attribute — the pairs Detect reports —
// in the executor's pair order, skipping each run of a member's own
// sub-group in one jump.
//
// Sub-grouping needs Equal to be transitive over the block's RHS cells. It
// is not when they hold a NaN (Equal to every float) or mix non-null kinds,
// which Equal compares numerically or by rendering (I(1), F(1) and S("1")
// are all Equal, and F(2^53) is Equal to both I(2^53) and I(2^53+1)), so
// such a block — like a composite block whose LHS cells differ — runs the
// rule's per-pair Detect over every pair instead.
// Violations and their order match the per-pair Detect exactly, and meet
// BlockDetectFunc's unordered contract given distinct RHS attributes (see
// Compile).
func fdBlockKernel(ruleID string, lhsIdx, rhsIdx []int, detect core.DetectFunc) core.BlockDetectFunc {
	return func(us []model.Tuple, ordered bool) ([]model.FixSet, int64) {
		n := len(us)
		if n < 2 {
			return nil, 0
		}
		sc := fdScratchPool.Get().(*fdScratch)
		defer sc.release()
		comb, violations, pairs, ok := sc.group(us, lhsIdx, rhsIdx)
		if !ok {
			var out []model.FixSet
			all := forEachPair(n, ordered, func(i, j int) {
				for _, v := range detect(core.PairItem(us[i], us[j])) {
					out = append(out, model.FixSet{Violation: v})
				}
			})
			return out, all
		}
		if violations == 0 {
			return nil, 0
		}
		if ordered {
			violations, pairs = 2*violations, 2*pairs
		}
		out, cells := make([]model.FixSet, 0, violations), make([]model.Cell, 2*violations)
		for i := 0; i < n; i++ {
			g := comb[i]
			j := i + 1
			if ordered {
				j = 0
			}
			for j < n {
				if comb[j] == g {
					j = int(sc.next[j])
					continue
				}
				for y, c := range rhsIdx {
					if sc.gid[y*n+i] == sc.gid[y*n+j] {
						continue
					}
					k := 2 * len(out)
					cells[k] = model.NewCell(us[i].ID, c, us[i].Cell(c))
					cells[k+1] = model.NewCell(us[j].ID, c, us[j].Cell(c))
					out = append(out, model.FixSet{Violation: model.NewViolation(ruleID, cells[k:k+2:k+2]...)})
				}
				j++
			}
		}
		return out, pairs
	}
}

// fdScratch is the FD kernel's working memory, pooled so that a block costs
// no allocation beyond its result.
type fdScratch struct {
	gid  []int32       // gid[y*n+i]: member i's sub-group under RHS attribute y
	comb []int32       // member i's sub-group under every RHS attribute at once
	next []int32       // next[j]: the first index after j in another combined sub-group, or n
	reps []int32       // each sub-group's first member, while grouping
	vals []model.Value // each sub-group's value, while grouping one attribute
	size []int64       // each sub-group's size, while grouping
}

var fdScratchPool = sync.Pool{New: func() any { return new(fdScratch) }}

// release returns the scratch to the pool without the block's cell values,
// so the pool pins none of their strings.
func (sc *fdScratch) release() {
	clear(sc.vals[:cap(sc.vals)])
	fdScratchPool.Put(sc)
}

// group sub-groups the block's members and returns the combined sub-group
// of each member plus the block's unordered violation and pair counts:
// C(n,2) − Σ C(n_g,2) per RHS attribute for the violations, over the
// combined sub-groups for the pairs. ok is false when the block must keep
// the per-pair Detect (see fdBlockKernel).
func (sc *fdScratch) group(us []model.Tuple, lhsIdx, rhsIdx []int) (comb []int32, violations, pairs int64, ok bool) {
	n := len(us)
	if len(lhsIdx) > 1 {
		for _, c := range lhsIdx {
			k := us[0].Cell(c).MapKey()
			for _, t := range us[1:] {
				if t.Cell(c).MapKey() != k {
					return nil, 0, 0, false
				}
			}
		}
	}
	all := int64(n) * int64(n-1) / 2
	sc.gid = slices.Grow(sc.gid[:0], len(rhsIdx)*n)[:len(rhsIdx)*n]
	for y, c := range rhsIdx {
		same, ok := sc.split(us, c, sc.gid[y*n:(y+1)*n])
		if !ok {
			return nil, 0, 0, false
		}
		violations += all - same
	}
	comb = sc.gid[:n]
	pairs = violations
	if len(rhsIdx) > 1 {
		comb = sc.combine(n, len(rhsIdx))
		pairs = all - sc.sameWithin()
	}
	sc.next = slices.Grow(sc.next[:0], n)[:n]
	sc.next[n-1] = int32(n)
	for j := n - 2; j >= 0; j-- {
		if comb[j+1] != comb[j] {
			sc.next[j] = int32(j + 1)
		} else {
			sc.next[j] = sc.next[j+1]
		}
	}
	return comb, violations, pairs, true
}

// split sub-groups the members by their Equal values in column c, writing
// each member's sub-group to gid, and returns Σ C(n_g,2) — the pairs within
// sub-groups. ok is false when the cells hold a NaN or mix non-null kinds.
// Matching a member against the sub-groups found so far costs at most one
// comparison per sub-group, which the pairs across them outnumber.
func (sc *fdScratch) split(us []model.Tuple, c int, gid []int32) (same int64, ok bool) {
	sc.vals, sc.size = sc.vals[:0], sc.size[:0]
	kind := model.KindNull
	for i, t := range us {
		v := t.Cell(c)
		if v.Kind != model.KindNull {
			if kind == model.KindNull {
				kind = v.Kind
			}
			if v.Kind != kind || (v.Kind == model.KindFloat && math.IsNaN(v.Flt)) {
				return 0, false
			}
		}
		g := 0
		for g < len(sc.vals) && !sc.vals[g].Equal(v) {
			g++
		}
		if g == len(sc.vals) {
			sc.vals, sc.size = append(sc.vals, v), append(sc.size, 0)
		}
		gid[i] = int32(g)
		sc.size[g]++
	}
	return sc.sameWithin(), true
}

// combine sub-groups n members by all k RHS attributes at once: two members
// share a combined sub-group when they share a sub-group under each one.
func (sc *fdScratch) combine(n, k int) []int32 {
	sc.comb = slices.Grow(sc.comb[:0], n)[:n]
	sc.reps, sc.size = sc.reps[:0], sc.size[:0]
	for i := 0; i < n; i++ {
		g := 0
		for ; g < len(sc.reps); g++ {
			r, y := int(sc.reps[g]), 0
			for y < k && sc.gid[y*n+r] == sc.gid[y*n+i] {
				y++
			}
			if y == k {
				break
			}
		}
		if g == len(sc.reps) {
			sc.reps, sc.size = append(sc.reps, int32(i)), append(sc.size, 0)
		}
		sc.comb[i] = int32(g)
		sc.size[g]++
	}
	return sc.comb
}

// sameWithin is Σ C(n_g,2) over the sub-group sizes just counted.
func (sc *fdScratch) sameWithin() int64 {
	var same int64
	for _, s := range sc.size {
		same += s * (s - 1) / 2
	}
	return same
}

// forEachPair visits the pairs of an n-unit block in the executor's
// enumeration order: i < j unordered (PairsUnique), every i != j ordered
// (PairsOrdered), outer i, inner j. It returns the number of pairs visited.
func forEachPair(n int, ordered bool, visit func(i, j int)) int64 {
	var pairs int64
	for i := 0; i < n; i++ {
		j := i + 1
		if ordered {
			j = 0
		}
		for ; j < n; j++ {
			if j != i {
				visit(i, j)
				pairs++
			}
		}
	}
	return pairs
}

// distinct returns cols without its repeats, first occurrences in order.
func distinct(cols []int) []int {
	out := cols[:0:0]
	for _, c := range cols {
		if !slices.Contains(out, c) {
			out = append(out, c)
		}
	}
	return out
}

// compositeKey renders a multi-attribute blocking key into one string
// value: kind-tagged cell keys joined with a separator, so composite blocks
// stay distinct across kinds. Single-attribute blocks should return the
// cell value directly instead and skip the allocation.
func compositeKey(t model.Tuple, cols []int) model.Value {
	var b strings.Builder
	for i, c := range cols {
		if i > 0 {
			b.WriteByte('\x1f')
		}
		b.WriteString(t.Cell(c).Key())
	}
	return model.S(b.String())
}

// resolveAttrs maps attribute names to column indexes.
func resolveAttrs(schema *model.Schema, names []string) ([]int, error) {
	out := make([]int, len(names))
	for i, n := range names {
		c, ok := schema.Index(n)
		if !ok {
			return nil, fmt.Errorf("unknown attribute %q (schema: %s)", n, schema)
		}
		out[i] = c
	}
	return out, nil
}
