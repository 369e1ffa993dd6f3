package netexec

import (
	"fmt"
	"testing"

	"bigdansing/internal/cleanse"
	"bigdansing/internal/core"
	"bigdansing/internal/engine"
	"bigdansing/internal/model"
	"bigdansing/internal/rules"
)

// dirtyTaxFDDC builds a tax table violating both an FD (zipcode -> city:
// a minority of each zipcode group carries a corrupted city) and a DC
// (no tuple may earn more yet pay a lower tax rate than another).
func dirtyTaxFDDC(groups, perGroup int) *model.Relation {
	s := model.MustParseSchema("name,zipcode:int,city,state,salary:float,rate:float")
	rel := model.NewRelation("tax", s)
	id := int64(0)
	for g := 0; g < groups; g++ {
		city := fmt.Sprintf("City%d", g)
		for i := 0; i < perGroup; i++ {
			c := city
			if i == 0 {
				c = city + "_typo" // FD violation: minority city per zipcode
			}
			rate := float64(10 + id%25)
			if id%11 == 0 {
				rate = 1 // DC violation: high earner, implausibly low rate
			}
			rel.Append(model.NewTuple(id,
				model.S(fmt.Sprintf("P%d", id)),
				model.I(int64(10000+g)),
				model.S(c),
				model.S("ST"),
				model.F(float64(40000+1000*id)),
				model.F(rate),
			))
			id++
		}
	}
	return rel
}

func fdDCRules(t *testing.T, s *model.Schema) []*core.Rule {
	t.Helper()
	fd, err := rules.ParseFD("phi1", "zipcode -> city")
	if err != nil {
		t.Fatal(err)
	}
	fdRule, err := fd.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := rules.ParseDC("phi2", "t1.rate > t2.rate & t1.salary < t2.salary")
	if err != nil {
		t.Fatal(err)
	}
	dcRule, err := dc.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	return []*core.Rule{fdRule, dcRule}
}

// TestCleanseFDDCMatchesLocal runs the full detect-repair loop (FD + DC
// together) on the in-process backend and on the networked backend with
// 1..5 worker processes, and requires identical results: the same repaired
// relation cell for cell, the same violation counts, the same iteration
// count. This is the end-to-end form of the cross-backend equivalence
// property — the detection plans route their shuffles, co-groups and join
// scatters through real worker processes and must change nothing.
func TestCleanseFDDCMatchesLocal(t *testing.T) {
	rel := dirtyTaxFDDC(6, 6)

	run := func(ctx *engine.Context) *cleanse.Result {
		t.Helper()
		cl, err := cleanse.NewCleaner(ctx, fdDCRules(t, rel.Schema), cleanse.WithMaxIterations(4))
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Clean(rel)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	want := run(engine.New(4))
	wantRep := want.Report()
	for _, b := range backends(1, 2, 3, 4, 5) {
		t.Run(b.name, func(t *testing.T) {
			got := run(b.ctx(t))
			gotRep := got.Report()
			if gotRep.InitialViolations != wantRep.InitialViolations {
				t.Errorf("initial violations: %d vs %d", gotRep.InitialViolations, wantRep.InitialViolations)
			}
			if gotRep.RemainingViolations != wantRep.RemainingViolations {
				t.Errorf("remaining violations: %d vs %d", gotRep.RemainingViolations, wantRep.RemainingViolations)
			}
			if gotRep.Iterations != wantRep.Iterations {
				t.Errorf("iterations: %d vs %d", gotRep.Iterations, wantRep.Iterations)
			}
			if len(got.Clean.Tuples) != len(want.Clean.Tuples) {
				t.Fatalf("tuple count: %d vs %d", len(got.Clean.Tuples), len(want.Clean.Tuples))
			}
			for i, wt := range want.Clean.Tuples {
				gt := got.Clean.Tuples[i]
				for c := 0; c < len(wt.Cells); c++ {
					if gt.Cell(c) != wt.Cell(c) {
						t.Errorf("tuple %d cell %d: %v vs %v", i, c, gt.Cell(c), wt.Cell(c))
					}
				}
			}
		})
	}
}
