package rules

import (
	"fmt"
	"slices"
	"strings"

	"bigdansing/internal/core"
	"bigdansing/internal/model"
)

// Wildcard is the tableau symbol matching any value.
const Wildcard = "_"

// PatternRow is one row of a CFD pattern tableau: a pattern value (constant
// or Wildcard) per LHS attribute and per RHS attribute.
type PatternRow struct {
	LHS []string
	RHS []string
}

// CFD is a conditional functional dependency [11]: an embedded FD
// LHS -> RHS plus a pattern tableau restricting and refining where it
// applies. A row with wildcard RHS behaves like the FD on the tuples
// matching its LHS pattern; a row with constant RHS asserts the constant on
// every matching tuple.
type CFD struct {
	ID      string
	LHS     []string
	RHS     []string
	Tableau []PatternRow
}

// ParseCFD parses "zipcode -> city | 90210 => LA ; _ => _": the embedded FD
// before '|', then semicolon-separated tableau rows of comma-separated LHS
// patterns '=>' RHS patterns.
func ParseCFD(id, spec string) (*CFD, error) {
	fdPart, tabPart, ok := strings.Cut(spec, "|")
	if !ok {
		return nil, fmt.Errorf("rules: CFD %s: missing '|' tableau separator in %q", id, spec)
	}
	fd, err := ParseFD(id, fdPart)
	if err != nil {
		return nil, err
	}
	cfd := &CFD{ID: id, LHS: fd.LHS, RHS: fd.RHS}
	for _, rowRaw := range strings.Split(tabPart, ";") {
		rowRaw = strings.TrimSpace(rowRaw)
		if rowRaw == "" {
			continue
		}
		lhsRaw, rhsRaw, ok := strings.Cut(rowRaw, "=>")
		if !ok {
			return nil, fmt.Errorf("rules: CFD %s: tableau row %q missing '=>'", id, rowRaw)
		}
		row := PatternRow{LHS: splitPatterns(lhsRaw), RHS: splitPatterns(rhsRaw)}
		if len(row.LHS) != len(cfd.LHS) || len(row.RHS) != len(cfd.RHS) {
			return nil, fmt.Errorf("rules: CFD %s: tableau row %q arity mismatch (want %d=>%d)",
				id, rowRaw, len(cfd.LHS), len(cfd.RHS))
		}
		cfd.Tableau = append(cfd.Tableau, row)
	}
	if len(cfd.Tableau) == 0 {
		return nil, fmt.Errorf("rules: CFD %s: empty tableau", id)
	}
	return cfd, nil
}

func splitPatterns(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		out = append(out, strings.TrimSpace(p))
	}
	return out
}

// matches reports whether the cell value matches a pattern entry.
func patternMatches(pat string, v model.Value) bool {
	return pat == Wildcard || pat == v.String()
}

// Compile translates the CFD into one or two rules:
//
//   - a unary rule checking every (row, RHS attribute) whose pattern is a
//     constant: a tuple matching the row's LHS pattern must carry the
//     constant (violations are single-tuple, exercising Detect's single-unit
//     granularity);
//   - a pair rule for rows with wildcard RHS entries: the embedded FD on
//     the tuples matching the row's LHS pattern, blocked on LHS like an FD.
func (cfd *CFD) Compile(schema *model.Schema) ([]*core.Rule, error) {
	lhsIdx, err := resolveAttrs(schema, cfd.LHS)
	if err != nil {
		return nil, fmt.Errorf("rules: CFD %s: %w", cfd.ID, err)
	}
	rhsIdx, err := resolveAttrs(schema, cfd.RHS)
	if err != nil {
		return nil, fmt.Errorf("rules: CFD %s: %w", cfd.ID, err)
	}
	ruleID := cfd.ID
	// Both rules read the LHS and RHS attributes, and nothing else.
	reads := distinct(append(slices.Clone(lhsIdx), rhsIdx...))

	matchLHS := func(row PatternRow, t model.Tuple) bool {
		for i, c := range lhsIdx {
			if !patternMatches(row.LHS[i], t.Cell(c)) {
				return false
			}
		}
		return true
	}

	var out []*core.Rule

	var constRows, varRows []PatternRow
	for _, row := range cfd.Tableau {
		hasConst, hasVar := false, false
		for _, p := range row.RHS {
			if p == Wildcard {
				hasVar = true
			} else {
				hasConst = true
			}
		}
		if hasConst {
			constRows = append(constRows, row)
		}
		if hasVar {
			varRows = append(varRows, row)
		}
	}

	if len(constRows) > 0 {
		rows := constRows
		out = append(out, &core.Rule{
			ID:    ruleID + "/const",
			Unary: true,
			Reads: reads,
			Detect: func(it core.Item) []model.Violation {
				t := it.One()
				var vs []model.Violation
				for _, row := range rows {
					if !matchLHS(row, t) {
						continue
					}
					for i, pat := range row.RHS {
						if pat == Wildcard {
							continue
						}
						v := t.Cell(rhsIdx[i])
						if v.String() != pat {
							vs = append(vs, model.NewViolation(ruleID,
								model.NewCell(t.ID, rhsIdx[i], v)))
						}
					}
				}
				return vs
			},
			GenFix: func(v model.Violation) []model.Fix {
				// The constant the pattern demands: recompute by matching
				// the cell's attribute against the rows.
				var fixes []model.Fix
				c := v.Cells[0]
				for _, row := range rows {
					for i, pat := range row.RHS {
						if pat != Wildcard && rhsIdx[i] == c.Col {
							fixes = append(fixes, model.NewConstFix(c, model.OpEQ, model.S(pat)))
						}
					}
				}
				return fixes
			},
		})
	}

	if len(varRows) > 0 {
		rows := varRows
		out = append(out, &core.Rule{
			ID:    ruleID + "/var",
			Reads: reads,
			Block: func(t model.Tuple) model.Value {
				if len(lhsIdx) == 1 {
					return t.Cell(lhsIdx[0])
				}
				return compositeKey(t, lhsIdx)
			},
			Symmetric: true,
			Detect: func(it core.Item) []model.Violation {
				l, r := it.Left(), it.Right()
				var vs []model.Violation
				for _, row := range rows {
					if !matchLHS(row, l) || !matchLHS(row, r) {
						continue
					}
					for i, pat := range row.RHS {
						if pat != Wildcard {
							continue
						}
						lv, rv := l.Cell(rhsIdx[i]), r.Cell(rhsIdx[i])
						if !lv.Equal(rv) {
							vs = append(vs, model.NewViolation(ruleID,
								model.NewCell(l.ID, rhsIdx[i], lv),
								model.NewCell(r.ID, rhsIdx[i], rv)))
						}
					}
				}
				return vs
			},
			GenFix: equateAdjacent,
		})
	}
	return out, nil
}
