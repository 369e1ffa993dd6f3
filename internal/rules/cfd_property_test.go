package rules

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"bigdansing/internal/core"
	"bigdansing/internal/engine"
	"bigdansing/internal/model"
)

// bruteForceCFD implements CFD semantics directly over the relation: for
// every tableau row, every tuple matching the LHS pattern must carry the
// row's RHS constants, and every pair of LHS-equal matching tuples must
// agree on the row's wildcard RHS attributes. It returns the number of
// distinct violations under the same counting scheme the compiled rules
// use (one per offending cell for constants, one per offending pair and
// attribute for wildcards).
func bruteForceCFD(cfd *CFD, rel *model.Relation) int {
	schema := rel.Schema
	lhsIdx := make([]int, len(cfd.LHS))
	for i, a := range cfd.LHS {
		lhsIdx[i], _ = schema.Index(a)
	}
	rhsIdx := make([]int, len(cfd.RHS))
	for i, a := range cfd.RHS {
		rhsIdx[i], _ = schema.Index(a)
	}
	match := func(row PatternRow, t model.Tuple) bool {
		for i, c := range lhsIdx {
			if row.LHS[i] != Wildcard && row.LHS[i] != t.Cell(c).String() {
				return false
			}
		}
		return true
	}
	seen := map[string]bool{}
	for _, row := range cfd.Tableau {
		for _, t := range rel.Tuples {
			if !match(row, t) {
				continue
			}
			for i, pat := range row.RHS {
				if pat != Wildcard && t.Cell(rhsIdx[i]).String() != pat {
					seen[fmt.Sprintf("const|%d|%d", t.ID, rhsIdx[i])] = true
				}
			}
		}
		for a := 0; a < len(rel.Tuples); a++ {
			for b := a + 1; b < len(rel.Tuples); b++ {
				ta, tb := rel.Tuples[a], rel.Tuples[b]
				if !match(row, ta) || !match(row, tb) {
					continue
				}
				agree := true
				for _, c := range lhsIdx {
					if !ta.Cell(c).Equal(tb.Cell(c)) {
						agree = false
						break
					}
				}
				if !agree {
					continue
				}
				for i, pat := range row.RHS {
					if pat != Wildcard {
						continue
					}
					if !ta.Cell(rhsIdx[i]).Equal(tb.Cell(rhsIdx[i])) {
						lo, hi := ta.ID, tb.ID
						if lo > hi {
							lo, hi = hi, lo
						}
						seen[fmt.Sprintf("pair|%d|%d|%d", lo, hi, rhsIdx[i])] = true
					}
				}
			}
		}
	}
	return len(seen)
}

func TestCFDDetectionMatchesBruteForce(t *testing.T) {
	ctx := engine.New(4)
	schema := model.MustParseSchema("zip,city,state")
	f := func(seed int64, rowsRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		rel := model.NewRelation("r", schema)
		n := int(rowsRaw%40) + 2
		for i := 0; i < n; i++ {
			rel.Append(model.NewTuple(int64(i),
				model.S(fmt.Sprintf("z%d", r.Intn(4))),
				model.S(fmt.Sprintf("c%d", r.Intn(3))),
				model.S(fmt.Sprintf("s%d", r.Intn(3)))))
		}
		// A tableau mixing a constant row and a wildcard row.
		spec := fmt.Sprintf("zip -> city, state | z%d => c0, _ ; _ => _, _", r.Intn(4))
		cfd, err := ParseCFD("p", spec)
		if err != nil {
			return false
		}
		rs, err := cfd.Compile(schema)
		if err != nil {
			return false
		}
		res, err := core.DetectRules(ctx, rs, rel)
		if err != nil {
			return false
		}
		want := bruteForceCFD(cfd, rel)
		if len(res.Violations) != want {
			t.Logf("seed %d n %d spec %q: detected %d, brute force %d",
				seed, n, spec, len(res.Violations), want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
