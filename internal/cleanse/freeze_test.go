package cleanse

import (
	"testing"

	"bigdansing/internal/core"
	"bigdansing/internal/engine"
	"bigdansing/internal/model"
	"bigdansing/internal/repair"
)

// flipAlgo proposes an update that re-dirties the cell every time: without
// the freeze device the loop would oscillate forever.
type flipAlgo struct{}

func (flipAlgo) Name() string { return "flip" }

func (flipAlgo) Repair(component []model.FixSet) ([]repair.Assignment, error) {
	var out []repair.Assignment
	for _, fs := range component {
		for _, c := range fs.Violation.Cells {
			// Always change the cell, never to the other cell's value: the
			// violation survives every "repair".
			out = append(out, repair.Assignment{
				TupleID: c.TupleID, Col: c.Col,
				Value: model.S(c.Value.String() + "x"),
			})
			break
		}
	}
	return out, nil
}

// TestFreezeStopsOscillation runs an adversarial repair algorithm whose
// proposals never converge; the freeze device (Section 2.2) must pin the
// oscillating cells and terminate with the violations reported as
// unfixable.
func TestFreezeStopsOscillation(t *testing.T) {
	s := model.MustParseSchema("k,v")
	rel := model.NewRelation("r", s)
	rel.Append(
		model.NewTuple(1, model.S("g"), model.S("A")),
		model.NewTuple(2, model.S("g"), model.S("B")),
	)
	rule := &core.Rule{
		ID:        "eq",
		Block:     func(tp model.Tuple) model.Value { return tp.Cell(0) },
		Symmetric: true,
		Detect: func(it core.Item, out *core.Output) {
			l, r := it.Left(), it.Right()
			if l.Cell(1).Equal(r.Cell(1)) {
				return
			}
			out.Emit("eq",
				model.NewCell(l.ID, 1, l.Cell(1)),
				model.NewCell(r.ID, 1, r.Cell(1)))
		},
		GenFix: func(dst []model.Fix, v model.Violation) []model.Fix {
			return append(dst, model.NewCellFix(v.Cells[0], model.OpEQ, v.Cells[1]))
		},
	}
	cleaner := mustCleaner(t, engine.New(2), []*core.Rule{rule},
		WithAlgorithm(flipAlgo{}), WithMaxIterations(20), WithFreezeAfter(2))
	res, err := cleaner.Clean(rel)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report().Iterations >= 20 {
		t.Errorf("freeze should terminate early, ran %d iterations", res.Report().Iterations)
	}
	if res.Report().FrozenCells == 0 {
		t.Error("oscillating cells should be frozen")
	}
	if res.Report().RemainingViolations == 0 {
		t.Error("the unfixable violation should be reported as remaining")
	}
}

// TestParallelRepairReportsCollected verifies the per-iteration reports of
// the parallel repair surface in the result.
func TestParallelRepairReportsCollected(t *testing.T) {
	rel := dirtyTax(6, 6, 2)
	cleaner := mustCleaner(t, engine.New(4), []*core.Rule{fdZipCity(t, rel)},
		WithParallelRepair(repair.Options{}))
	res, err := cleaner.Clean(rel)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report().RepairRounds) == 0 {
		t.Fatal("parallel runs should report per iteration")
	}
	if res.Report().RepairRounds[0].Components == 0 || res.Report().RepairRounds[0].Assignments == 0 {
		t.Errorf("first report = %+v", res.Report().RepairRounds[0])
	}
}
