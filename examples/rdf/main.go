// RDF: the Appendix C scenario — cleanse an RDF graph of students,
// advisors and universities under the rule "two students advised by the
// same professor must be in the same university". Triples are pivoted into
// per-student tuples, the rule runs as a blocked UDF, and the repair
// equates the universities.
//
//	go run ./examples/rdf
package main

import (
	"fmt"
	"log"

	"bigdansing/internal/cleanse"
	"bigdansing/internal/core"
	"bigdansing/internal/engine"
	"bigdansing/internal/model"
	"bigdansing/internal/rdf"
	"bigdansing/internal/repair"
)

const graph = `
John    student_in   MIT .
Sally   student_in   UCB .
Bob     student_in   MIT .
Alice   student_in   CMU .
Carol   student_in   CMU .
John    advised_by   William .
Sally   advised_by   William .
Bob     advised_by   William .
Alice   advised_by   Grace .
Carol   advised_by   Grace .
William professor_in MIT .
Grace   professor_in CMU .
`

func main() {
	triples, err := rdf.ParseString(graph)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parsed %d triples\n", len(triples))

	// Scope + pivot: keep only student_in/advised_by and reshape to one
	// tuple per student (Figure 13's plan prefix).
	students := rdf.Pivot("students", triples, "student_in", "advised_by")
	fmt.Println("pivoted student tuples:")
	for _, t := range students.Tuples {
		fmt.Printf("  %s: university=%s advisor=%s\n", t.Cell(0), t.Cell(1), t.Cell(2))
	}

	rule := &core.Rule{
		ID:        "sameAdvisorSameUniv",
		Block:     func(t model.Tuple) model.Value { return t.Cell(2) }, // group by advisor
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
			return []model.Fix{model.CellFixOf(v.Cells, model.OpEQ)}
		},
	}

	ctx := engine.New(4)
	res, err := core.DetectRule(ctx, rule, students)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nviolations (students sharing an advisor across universities): %d\n", len(res.Violations))
	for _, v := range res.Violations {
		fmt.Println(" ", v)
	}

	cleaner, err := cleanse.NewCleaner(ctx, []*core.Rule{rule}, cleanse.WithParallelRepair(repair.Options{}))
	if err != nil {
		log.Fatal(err)
	}
	result, err := cleaner.Clean(students)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter repair (%d iteration(s)):\n", result.Report().Iterations)
	for _, t := range result.Clean.Tuples {
		fmt.Printf("  %s: university=%s advisor=%s\n", t.Cell(0), t.Cell(1), t.Cell(2))
	}
	fmt.Println("\nthe repaired tuples translate back to an updated RDF graph:")
	for _, tr := range rdf.FromPivoted(result.Clean) {
		fmt.Printf("  %s\n", tr)
	}
}
