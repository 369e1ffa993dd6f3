package core

import (
	"sync/atomic"
	"testing"

	"bigdansing/internal/engine"
	"bigdansing/internal/model"
)

// Appendix E works over two tables: Global (employees as HQ sees them) and
// Local (employees as a site sees them). These tests exercise multi-input
// jobs and bushy plans: several Detects sharing scans over two relations.

func globalTable() *model.Relation {
	s := model.MustParseSchema("gid:int,fn,ln,role,city,st,sal:float")
	rel := model.NewRelation("G", s)
	add := func(id int64, fn, ln, role, city, st string, sal float64) {
		rel.Append(model.NewTuple(id, model.I(id), model.S(fn), model.S(ln), model.S(role), model.S(city), model.S(st), model.F(sal)))
	}
	add(1, "Ann", "Lee", "E", "NYC", "NY", 90000)
	add(2, "Bob", "Ray", "M", "NYC", "NY", 120000)
	add(3, "Cal", "Fox", "E", "SF", "CA", 95000)
	add(4, "Dee", "Kim", "E", "SF", "WA", 80000) // st inconsistent with city SF
	return rel
}

func localTable() *model.Relation {
	s := model.MustParseSchema("lid:int,fn,ln,rnk,city,mid:int,sal:float")
	rel := model.NewRelation("L", s)
	add := func(id int64, fn, ln, rnk, city string, mid int64, sal float64) {
		rel.Append(model.NewTuple(100+id, model.I(id), model.S(fn), model.S(ln), model.S(rnk), model.S(city), model.I(mid), model.F(sal)))
	}
	add(1, "Ann", "Lee", "senior", "NYC", 2, 91000) // salary disagrees with G
	add(2, "Bob", "Ray", "mgr", "NYC", 2, 120000)
	add(3, "Cal", "Fox", "junior", "SF", 2, 95000)
	return rel
}

// TestTwoRelationJob runs a cross-table rule: a local employee and a global
// employee with the same first+last name must report the same salary.
func TestTwoRelationJob(t *testing.T) {
	g, l := globalTable(), localTable()
	nameKeyG := func(tp model.Tuple) model.Value { return model.S(tp.Cell(1).Key() + "|" + tp.Cell(2).Key()) }
	nameKeyL := func(tp model.Tuple) model.Value { return model.S(tp.Cell(1).Key() + "|" + tp.Cell(2).Key()) }

	job := NewJob("cross-table salary")
	job.AddInput(l, "L")
	job.AddInput(g, "G")
	job.AddBlock(nameKeyL, "L")
	job.AddBlock(nameKeyG, "G")
	job.AddIterate(PairsAcross, "V", "L", "G")
	job.AddDetect(func(it Item, out *Output) {
		lt, gt := it.Left(), it.Right()
		if lt.Cell(6).Equal(gt.Cell(6)) {
			return
		}
		out.Emit("salary",
			model.NewCell(lt.ID, 6, lt.Cell(6)),
			model.NewCell(gt.ID, 6, gt.Cell(6)))
	}, "V")
	job.AddGenFix(func(dst []model.Fix, v model.Violation) []model.Fix {
		return append(dst, model.NewCellFix(v.Cells[0], model.OpEQ, v.Cells[1]))
	}, "V")

	lp, err := BuildPlan(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(lp.Pipelines) != 1 || len(lp.Pipelines[0].Branches) != 2 {
		t.Fatalf("plan shape: %+v", lp.Pipelines)
	}
	if lp.Pipelines[0].Branches[0].Dataset != "L" || lp.Pipelines[0].Branches[1].Dataset != "G" {
		t.Errorf("branch datasets: %v, %v", lp.Pipelines[0].Branches[0].Dataset, lp.Pipelines[0].Branches[1].Dataset)
	}

	ctx := engine.New(4)
	res, err := RunJobSpark(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	// Only Ann Lee's salaries disagree (91000 vs 90000).
	if len(res.Violations) != 1 {
		t.Fatalf("violations = %d, want 1: %v", len(res.Violations), res.Violations)
	}
	ids := res.Violations[0].TupleIDs()
	if ids[0] != 1 || ids[1] != 101 {
		t.Errorf("violating tuples = %v, want G#1 and L#101", ids)
	}
	if len(res.FixSets[0].Fixes) != 1 {
		t.Error("a fix should be proposed")
	}
}

// TestBushyPlanSharedScans runs two Detects over the same two inputs (the
// Figure 16 shape): both rules block G on city; consolidation recognizes
// the shared scan.
func TestBushyPlanSharedScans(t *testing.T) {
	g := globalTable()
	cityKey := func(tp model.Tuple) model.Value { return tp.Cell(4) }

	job := NewJob("bushy")
	job.AddInput(g, "G1", "G2")
	// c1: same city must mean same state.
	job.AddBlock(cityKey, "G1")
	job.AddIterate(PairsUnique, "V1", "G1")
	job.AddDetect(func(it Item, out *Output) {
		a, b := it.Left(), it.Right()
		if a.Cell(5).Equal(b.Cell(5)) {
			return
		}
		out.Emit("c1",
			model.NewCell(a.ID, 5, a.Cell(5)),
			model.NewCell(b.ID, 5, b.Cell(5)))
	}, "V1")
	// c2: within a city, a manager must earn at least what an employee earns.
	job.AddBlock(cityKey, "G2")
	job.AddIterate(PairsOrdered, "V2", "G2")
	job.AddDetect(func(it Item, out *Output) {
		m, e := it.Left(), it.Right()
		if m.Cell(3).String() != "M" || e.Cell(3).String() != "E" {
			return
		}
		if m.Cell(6).Float() >= e.Cell(6).Float() {
			return
		}
		out.Emit("c2",
			model.NewCell(m.ID, 6, m.Cell(6)),
			model.NewCell(e.ID, 6, e.Cell(6)))
	}, "V2")

	lp, err := BuildPlan(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(lp.Pipelines) != 2 {
		t.Fatalf("pipelines = %d", len(lp.Pipelines))
	}
	lp = Consolidate(lp)
	if lp.SharedScans != 1 {
		t.Errorf("shared scans = %d, want 1 (G scanned once for both rules)", lp.SharedScans)
	}

	ctx := engine.New(4)
	res, err := RunJobSpark(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	byRule := map[string]int{}
	for _, v := range res.Violations {
		byRule[v.RuleID]++
	}
	// c1: SF has CA vs WA -> 1 violation. c2: no manager underpaid -> 0.
	if byRule["c1"] != 1 || byRule["c2"] != 0 {
		t.Errorf("per-rule counts = %v", byRule)
	}
}

// TestJobCustomIterateTwoStreams feeds a user Iterate the bags of two
// co-grouped streams (the D_M flow of Figure 4).
func TestJobCustomIterateTwoStreams(t *testing.T) {
	g, l := globalTable(), localTable()
	cityG := func(tp model.Tuple) model.Value { return tp.Cell(4) }
	cityL := func(tp model.Tuple) model.Value { return tp.Cell(4) }

	var calls atomic.Int32
	job := NewJob("custom iterate")
	job.AddInput(l, "L")
	job.AddInput(g, "G")
	job.AddBlock(cityL, "L")
	job.AddBlock(cityG, "G")
	job.AddIterate(func(blocks [][]model.Tuple) []Item {
		calls.Add(1)
		// Emit the whole co-grouped block as one list item.
		var all []model.Tuple
		for _, b := range blocks {
			all = append(all, b...)
		}
		if len(all) == 0 {
			return nil
		}
		return []Item{ListItem(all)}
	}, "V", "L", "G")
	job.AddDetect(func(it Item, _ *Output) {
		if it.Kind != ItemList {
			t.Errorf("expected list item, got %v", it.Kind)
		}
	}, "V")

	ctx := engine.New(2)
	if _, err := RunJobSpark(ctx, job); err != nil {
		t.Fatal(err)
	}
	if calls.Load() == 0 {
		t.Error("custom iterate should run per co-grouped key")
	}
}
