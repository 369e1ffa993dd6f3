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
	"strings"

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
//	Block   keys on the LHS values (Scope is logically a projection to
//	        LHS ∪ RHS; physically it is pushed down to the storage layer,
//	        see package storage, so cells keep their base-table columns),
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
	rhsNames := make([]string, len(rhsIdx))
	for i, c := range rhsIdx {
		rhsNames[i] = schema.Name(c)
	}
	ruleID := fd.ID
	blockAttr := ""
	if len(lhsIdx) == 1 {
		blockAttr = schema.Name(lhsIdx[0])
	}

	rule := &core.Rule{
		ID:        ruleID,
		BlockAttr: blockAttr,
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
			for i, c := range rhsIdx {
				lv, rv := l.Cell(c), r.Cell(c)
				if lv.Equal(rv) {
					continue
				}
				v := model.NewViolation(ruleID,
					model.NewCell(l.ID, c, rhsNames[i], lv),
					model.NewCell(r.ID, c, rhsNames[i], rv),
				)
				out = append(out, v)
			}
			return out
		},
		GenFix: func(v model.Violation) []model.Fix {
			if len(v.Cells) < 2 {
				return nil
			}
			return []model.Fix{model.NewCellFix(v.Cells[0], model.OpEQ, v.Cells[1])}
		},
	}
	if len(lhsIdx) > 1 {
		// Each single LHS attribute is a coarser — but still correct —
		// block key: Detect re-checks the full LHS per pair, so blocking on
		// any one LHS column surfaces every violation the composite key
		// does. The cost planner may pick one when the composite key is
		// heavily skewed or its key strings dominate the shuffle.
		for _, c := range lhsIdx {
			col := c
			rule.AltBlocks = append(rule.AltBlocks, func(t model.Tuple) model.Value {
				return t.Cell(col)
			})
			rule.AltBlockAttrs = append(rule.AltBlockAttrs, schema.Name(col))
		}
	}
	rule.DetectBlock = fdBlockKernel(ruleID, lhsIdx, rhsIdx, rhsNames)
	return rule, nil
}

// fdBlockKernel builds the FD's block kernel. A single-attribute LHS blocks
// on the LHS value itself and groups by its exact ValueKey — key equality
// implies value equality, so every pair in the block already agrees on the
// LHS and the kernel compares RHS cells directly with no per-pair LHS check
// (which the per-pair Detect still pays). A composite LHS blocks on a joined
// key string that can collide across kinds, so its kernel gathers the LHS
// columns into flat vectors once per block and keeps the self-contained LHS
// equality check.
// Violations and their order match the per-pair Detect exactly.
func fdBlockKernel(ruleID string, lhsIdx, rhsIdx []int, rhsNames []string) core.BlockDetectFunc {
	nl := len(lhsIdx)
	return func(us []model.Tuple, ordered bool) []model.Violation {
		n := len(us)
		if n < 2 {
			return nil
		}
		var lhs [][]model.Value // a composite LHS's columns, gathered once per block
		if nl > 1 {
			buf := make([]model.Value, nl*n) // one allocation for all vectors
			lhs = make([][]model.Value, nl)
			for x, c := range lhsIdx {
				lhs[x] = buf[x*n : (x+1)*n]
				for i, t := range us {
					lhs[x][i] = t.Cell(c)
				}
			}
		}
		// Two passes over the pairs: the first counts the violations, the
		// second fills the result and a two-cells-per-violation slab, both
		// allocated at exactly that size.
		var out []model.Violation
		var cells []model.Cell
		count := 0
		pass := func(fill bool) {
			forEachPair(n, ordered, func(i, j int) {
				for x := range lhs {
					if !lhs[x][i].Equal(lhs[x][j]) {
						return
					}
				}
				for y, c := range rhsIdx {
					lv, rv := us[i].Cell(c), us[j].Cell(c)
					if lv.Equal(rv) {
						continue
					}
					if !fill {
						count++
						continue
					}
					k := 2 * len(out)
					cells[k] = model.NewCell(us[i].ID, c, rhsNames[y], lv)
					cells[k+1] = model.NewCell(us[j].ID, c, rhsNames[y], rv)
					out = append(out, model.NewViolation(ruleID, cells[k:k+2:k+2]...))
				}
			})
		}
		pass(false)
		if count == 0 {
			return nil
		}
		out, cells = make([]model.Violation, 0, count), make([]model.Cell, 2*count)
		pass(true)
		return out
	}
}

// forEachPair visits the pairs of an n-unit block in the executor's
// enumeration order: i < j unordered (PairsUnique), every i != j ordered
// (PairsOrdered), outer i, inner j.
func forEachPair(n int, ordered bool, visit func(i, j int)) {
	for i := 0; i < n; i++ {
		j := i + 1
		if ordered {
			j = 0
		}
		for ; j < n; j++ {
			if j != i {
				visit(i, j)
			}
		}
	}
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
