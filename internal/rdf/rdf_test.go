package rdf

import (
	"strings"
	"testing"

	"bigdansing/internal/core"
	"bigdansing/internal/engine"
	"bigdansing/internal/model"
)

// exampleTriples is the student/advisor RDF dataset of Figure 14.
const exampleTriples = `
# students, advisors, universities
John    student_in  MIT .
Sally   student_in  UCB .
John    advised_by  William .
Sally   advised_by  William .
William professor_in MIT .
`

func TestParse(t *testing.T) {
	ts, err := ParseString(exampleTriples)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 5 {
		t.Fatalf("triples = %d", len(ts))
	}
	if ts[0].Subject != "John" || ts[0].Predicate != "student_in" || ts[0].Object != "MIT" {
		t.Errorf("triple 0 = %+v", ts[0])
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := ParseString("only two"); err == nil {
		t.Error("short line should fail")
	}
	ts, err := ParseString("")
	if err != nil || len(ts) != 0 {
		t.Error("empty input parses to nothing")
	}
}

func TestToRelation(t *testing.T) {
	ts, _ := ParseString(exampleTriples)
	rel := ToRelation("rdf", ts)
	if rel.Len() != 5 || rel.Schema.Len() != 3 {
		t.Fatalf("relation shape: %d x %d", rel.Len(), rel.Schema.Len())
	}
}

func TestPivot(t *testing.T) {
	ts, _ := ParseString(exampleTriples)
	rel := Pivot("students", ts, "student_in", "advised_by")
	if rel.Len() != 2 {
		t.Fatalf("pivot rows = %d, want 2 (John, Sally)", rel.Len())
	}
	byName := map[string]model.Tuple{}
	for _, tp := range rel.Tuples {
		byName[tp.Cell(0).String()] = tp
	}
	john := byName["John"]
	if john.Cell(1) != model.S("MIT") || john.Cell(2) != model.S("William") {
		t.Errorf("john = %v", john)
	}
	// William has no student_in/advised_by triples: not pivoted.
	if _, ok := byName["William"]; ok {
		t.Error("non-student subjects should be scoped out")
	}
}

func TestFromPivotedRoundTrip(t *testing.T) {
	ts, _ := ParseString(exampleTriples)
	rel := Pivot("students", ts, "student_in", "advised_by")
	back := FromPivoted(rel)
	// Two students x two predicates = 4 triples.
	if len(back) != 4 {
		t.Fatalf("triples = %d, want 4", len(back))
	}
	var buf strings.Builder
	for _, tr := range back {
		buf.WriteString(tr.String() + "\n")
	}
	again, err := ParseString(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(back) {
		t.Fatalf("write/parse round trip: %d vs %d", len(again), len(back))
	}
	for i := range back {
		if again[i] != back[i] {
			t.Errorf("triple %d: %v vs %v", i, again[i], back[i])
		}
	}
}

func TestRDFAdvisorRuleEndToEnd(t *testing.T) {
	// The Appendix C rule: two students with the same advisor must be in
	// the same university. John (MIT) and Sally (UCB) share William.
	ts, _ := ParseString(exampleTriples)
	rel := Pivot("students", ts, "student_in", "advised_by")
	rule := &core.Rule{
		ID:        "sameAdvisorSameUniv",
		Block:     func(t model.Tuple) model.Value { return t.Cell(2) }, // advisor
		Symmetric: true,
		Detect: func(it core.Item) []model.Violation {
			l, r := it.Left(), it.Right()
			if l.Cell(2).Equal(r.Cell(2)) && !l.Cell(1).Equal(r.Cell(1)) {
				return []model.Violation{model.NewViolation("sameAdvisorSameUniv",
					model.NewCell(l.ID, 1, l.Cell(1)),
					model.NewCell(r.ID, 1, r.Cell(1)))}
			}
			return nil
		},
		GenFix: func(v model.Violation) []model.Fix {
			return []model.Fix{model.NewCellFix(v.Cells[0], model.OpEQ, v.Cells[1])}
		},
	}
	ctx := engine.New(2)
	res, err := core.DetectRule(ctx, rule, rel)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 1 {
		t.Fatalf("violations = %d, want 1 (John vs Sally)", len(res.Violations))
	}
	if len(res.FixSets[0].Fixes) != 1 {
		t.Error("a fix equating the universities should be proposed")
	}
}
