package core

import (
	"strings"
	"sync/atomic"
	"testing"

	"bigdansing/internal/engine"
	"bigdansing/internal/join"
	"bigdansing/internal/model"
)

// exampleTax builds the dataset D of Example 1 (Table 1).
func exampleTax() *model.Relation {
	s := model.MustParseSchema("name,zipcode:int,city,state,salary:float,rate:float")
	rel := model.NewRelation("tax", s)
	add := func(id int64, name string, zip int64, city, state string, salary, rate float64) {
		rel.Append(model.NewTuple(id, model.S(name), model.I(zip), model.S(city), model.S(state), model.F(salary), model.F(rate)))
	}
	add(1, "Annie", 10011, "NY", "NY", 24000, 15)
	add(2, "Laure", 90210, "LA", "CA", 25000, 10)
	add(3, "John", 60601, "CH", "IL", 40000, 25)
	add(4, "Mark", 90210, "SF", "CA", 88000, 28)
	add(5, "Robert", 68270, "CH", "IL", 15000, 20)
	add(6, "Mary", 90210, "LA", "CA", 81000, 28)
	return rel
}

// fdRule builds the φF rule (zipcode -> city) by hand, mirroring the code
// the declarative translator generates (Listings 1-2 and 4-6).
func fdRule() *Rule {
	return &Rule{
		ID: "phiF",
		Scope: func(t model.Tuple) []model.Tuple {
			// Project zipcode (orig col 1) and city (orig col 2), keeping
			// original column positions so fixes address the base table.
			return []model.Tuple{t}
		},
		Block:     func(t model.Tuple) model.Value { return t.Cell(1) },
		Symmetric: true,
		Detect: func(it Item) []model.Violation {
			l, r := it.Left(), it.Right()
			if l.Cell(2).Equal(r.Cell(2)) {
				return nil
			}
			v := model.NewViolation("phiF",
				model.NewCell(l.ID, 2, l.Cell(2)),
				model.NewCell(r.ID, 2, r.Cell(2)),
			)
			return []model.Violation{v}
		},
		GenFix: func(v model.Violation) []model.Fix {
			return []model.Fix{model.NewCellFix(v.Cells[0], model.OpEQ, v.Cells[1])}
		},
	}
}

// dcRule builds φD: violation when t1.rate > t2.rate and t1.salary < t2.salary.
func dcRule() *Rule {
	return &Rule{
		ID: "phiD",
		OrderConds: []join.Cond{
			{LeftCol: 5, Op: model.OpGT, RightCol: 5}, // t1.rate > t2.rate
			{LeftCol: 4, Op: model.OpLT, RightCol: 4}, // t1.salary < t2.salary
		},
		Detect: func(it Item) []model.Violation {
			l, r := it.Left(), it.Right()
			v := model.NewViolation("phiD",
				model.NewCell(l.ID, 5, l.Cell(5)),
				model.NewCell(r.ID, 5, r.Cell(5)),
				model.NewCell(l.ID, 4, l.Cell(4)),
				model.NewCell(r.ID, 4, r.Cell(4)),
			)
			return []model.Violation{v}
		},
		GenFix: func(v model.Violation) []model.Fix {
			return []model.Fix{
				model.NewCellFix(v.Cells[0], model.OpLE, v.Cells[1]),
				model.NewCellFix(v.Cells[2], model.OpGE, v.Cells[3]),
			}
		},
	}
}

func TestRuleValidate(t *testing.T) {
	if err := (&Rule{ID: "x", Detect: func(Item) []model.Violation { return nil }}).Validate(); err != nil {
		t.Errorf("minimal rule should validate: %v", err)
	}
	if err := (&Rule{ID: "x"}).Validate(); err == nil {
		t.Error("missing Detect should fail")
	}
	if err := (&Rule{Detect: func(Item) []model.Violation { return nil }}).Validate(); err == nil {
		t.Error("missing ID should fail")
	}
	bad := &Rule{ID: "x", Detect: func(Item) []model.Violation { return nil },
		Block:      func(model.Tuple) model.Value { return model.Value{} },
		OrderConds: []join.Cond{{LeftCol: 0, Op: model.OpLT, RightCol: 0}}}
	if err := bad.Validate(); err == nil {
		t.Error("Block plus OrderConds should fail")
	}
	badOp := &Rule{ID: "x", Detect: func(Item) []model.Violation { return nil },
		OrderConds: []join.Cond{{LeftCol: 0, Op: model.OpEQ, RightCol: 0}}}
	if err := badOp.Validate(); err == nil {
		t.Error("equality order condition should fail")
	}
	brOnly := &Rule{ID: "x", Detect: func(Item) []model.Violation { return nil },
		BlockRight: func(model.Tuple) model.Value { return model.Value{} }}
	if err := brOnly.Validate(); err == nil {
		t.Error("BlockRight without Block should fail")
	}
}

func TestFDDetectionFindsExampleViolations(t *testing.T) {
	ctx := engine.New(4)
	res, err := DetectRule(ctx, fdRule(), exampleTax())
	if err != nil {
		t.Fatal(err)
	}
	// Example 1: (t2,t4) and (t4,t6) violate phiF.
	if len(res.Violations) != 2 {
		t.Fatalf("violations = %d, want 2: %v", len(res.Violations), res.Violations)
	}
	for _, v := range res.Violations {
		ids := v.TupleIDs()
		if !(contains(ids, 4) && (contains(ids, 2) || contains(ids, 6))) {
			t.Errorf("unexpected violation between tuples %v", ids)
		}
	}
	fixes := 0
	for _, fs := range res.FixSets {
		fixes += len(fs.Fixes)
	}
	if fixes != 2 {
		t.Errorf("fixes = %d, want 2", fixes)
	}
}

func TestDCDetectionViaOCJoin(t *testing.T) {
	ctx := engine.New(4)
	rel := exampleTax()
	lp, err := PlanRule(dcRule(), rel)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := NewPlanner().Plan(lp)
	if err != nil {
		t.Fatal(err)
	}
	if pp.Pipelines[0].Impl != IterOCJoin {
		t.Fatalf("DC with ordering conditions should use OCJoin, got %v", pp.Pipelines[0].Impl)
	}
	res, err := RunPlanSpark(ctx, pp)
	if err != nil {
		t.Fatal(err)
	}
	// In this instance three pairs violate φD: (t1,t2), (t5,t2), (t5,t1) —
	// in each the left tuple earns less but pays a higher rate.
	if len(res.Violations) != 3 {
		t.Fatalf("violations = %d, want 3: %v", len(res.Violations), res.Violations)
	}
	pairs := map[[2]int64]bool{}
	for _, v := range res.Violations {
		ids := v.TupleIDs()
		pairs[[2]int64{ids[0], ids[1]}] = true
	}
	if !pairs[[2]int64{1, 2}] || !pairs[[2]int64{2, 5}] || !pairs[[2]int64{1, 5}] {
		t.Errorf("expected violations {1,2}, {2,5} and {1,5}, got %v", pairs)
	}
}

func contains(ids []int64, x int64) bool {
	for _, i := range ids {
		if i == x {
			return true
		}
	}
	return false
}

func TestOptimizerEnhancerSelection(t *testing.T) {
	rel := exampleTax()
	detect := func(Item) []model.Violation { return nil }
	block := func(t model.Tuple) model.Value { return t.Cell(1) }

	cases := []struct {
		name string
		rule *Rule
		want IterImpl
	}{
		{"symmetric blocked -> UCrossProduct", &Rule{ID: "a", Detect: detect, Block: block, Symmetric: true}, IterUniquePairs},
		{"asymmetric blocked -> CrossProduct", &Rule{ID: "b", Detect: detect, Block: block}, IterOrderedPairs},
		{"order conds -> OCJoin", &Rule{ID: "c", Detect: detect, OrderConds: []join.Cond{{LeftCol: 4, Op: model.OpLT, RightCol: 4}}}, IterOCJoin},
		{"coblock -> CoBlock", &Rule{ID: "d", Detect: detect, Block: block, BlockRight: block}, IterCoBlockPairs},
		{"unary -> PMap", &Rule{ID: "e", Detect: detect, Unary: true}, IterSingles},
		{"symmetric unblocked -> UCrossProduct", &Rule{ID: "f", Detect: detect, Symmetric: true}, IterUniquePairs},
		{"custom iterate -> PIterate", &Rule{ID: "g", Detect: detect, Iterate: func([][]model.Tuple) []Item { return nil }}, IterCustom},
	}
	for _, c := range cases {
		lp, err := PlanRule(c.rule, rel)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		pp, err := NewPlanner().Plan(lp)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := pp.Pipelines[0].Impl; got != c.want {
			t.Errorf("%s: impl = %v, want %v", c.name, got, c.want)
		}
		if pp.Explain() == "" {
			t.Errorf("%s: Explain should render", c.name)
		}
	}
}

func TestJobAPIAndPlanBuilding(t *testing.T) {
	rel := exampleTax()
	job := NewJob("Example Job")
	job.AddInput(rel, "S")
	job.AddScope(func(t model.Tuple) []model.Tuple { return []model.Tuple{t} }, "S")
	job.AddBlock(func(t model.Tuple) model.Value { return t.Cell(1) }, "S")
	job.AddIterate(PairsUnique, "V", "S")
	job.AddDetect(fdRule().Detect, "V")
	job.AddGenFix(fdRule().GenFix, "V")

	lp, err := BuildPlan(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(lp.Pipelines) != 1 {
		t.Fatalf("pipelines = %d", len(lp.Pipelines))
	}
	p := lp.Pipelines[0]
	if len(p.Branches) != 1 || p.Branches[0].Dataset != "S" {
		t.Errorf("branch = %+v", p.Branches)
	}
	if len(p.Branches[0].Scopes) != 1 || p.Branches[0].Block == nil {
		t.Error("scope and block should resolve")
	}
	if p.GenFix == nil {
		t.Error("genfix should match detect label")
	}

	ctx := engine.New(4)
	res, err := RunJobSpark(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 2 {
		t.Errorf("job execution found %d violations, want 2", len(res.Violations))
	}
}

func TestJobValidationErrors(t *testing.T) {
	rel := exampleTax()

	empty := NewJob("no inputs")
	empty.AddDetect(func(Item) []model.Violation { return nil }, "X")
	if _, err := BuildPlan(empty); err == nil {
		t.Error("job with no inputs should fail")
	}

	noDetect := NewJob("no detect")
	noDetect.AddInput(rel, "S")
	if _, err := BuildPlan(noDetect); err == nil {
		t.Error("job with no Detect should fail")
	}

	badLabel := NewJob("bad label")
	badLabel.AddInput(rel, "S")
	badLabel.AddBlock(func(model.Tuple) model.Value { return model.Value{} }, "T")
	badLabel.AddDetect(func(Item) []model.Violation { return nil }, "S")
	if _, err := BuildPlan(badLabel); err == nil {
		t.Error("block on undefined label should fail")
	}

	orphanFix := NewJob("orphan genfix")
	orphanFix.AddInput(rel, "S")
	orphanFix.AddDetect(func(Item) []model.Violation { return nil }, "S")
	orphanFix.AddGenFix(func(model.Violation) []model.Fix { return nil }, "Z")
	if _, err := BuildPlan(orphanFix); err == nil {
		t.Error("GenFix without matching Detect should fail")
	}
}

func TestConsolidationSharesScans(t *testing.T) {
	rel := exampleTax()
	// Rule (1)-style DC: same dataset scanned twice under different labels.
	scope := func(t model.Tuple) []model.Tuple { return []model.Tuple{t} }
	r := &Rule{
		ID:     "dc1",
		Scope:  scope,
		Block:  func(t model.Tuple) model.Value { return t.Cell(0) },
		Detect: func(Item) []model.Violation { return nil },
	}
	r.BlockRight = func(t model.Tuple) model.Value { return t.Cell(0) }
	lp, err := PlanRule(r, rel)
	if err != nil {
		t.Fatal(err)
	}
	lp = Consolidate(lp)
	if lp.SharedScans != 1 {
		t.Errorf("shared scans = %d, want 1 (two branches over one dataset+scope)", lp.SharedScans)
	}

	// Multi-rule consolidation: rules sharing the same Scope function over
	// the same table share one scan (Algorithm 1 matches operators by the
	// function they apply, not by label).
	sharedScope := func(t model.Tuple) []model.Tuple { return []model.Tuple{t} }
	mkRule := func(id string) *Rule {
		rr := fdRule()
		rr.ID = id
		rr.Scope = sharedScope
		return rr
	}
	rules := []*Rule{mkRule("r1"), mkRule("r2"), mkRule("r3")}
	mlp, err := PlanRules(rules, rel)
	if err != nil {
		t.Fatal(err)
	}
	mlp = Consolidate(mlp)
	if mlp.SharedScans < 2 {
		t.Errorf("multi-rule shared scans = %d, want >= 2", mlp.SharedScans)
	}
}

func TestCoBlockAcrossTwoKeyings(t *testing.T) {
	// A dedup-style self CoBlock: left keyed by zipcode, right keyed by
	// zipcode; detect reports pairs with different cities (same as FD but
	// through the CoBlock path, checking cross-bag pairing).
	ctx := engine.New(4)
	rel := exampleTax()
	seen := map[string]bool{}
	r := &Rule{
		ID:         "coblock",
		Block:      func(t model.Tuple) model.Value { return t.Cell(1) },
		BlockRight: func(t model.Tuple) model.Value { return t.Cell(1) },
		Detect: func(it Item) []model.Violation {
			l, rr := it.Left(), it.Right()
			if l.Cell(2).Equal(rr.Cell(2)) {
				return nil
			}
			v := model.NewViolation("coblock",
				model.NewCell(l.ID, 2, l.Cell(2)),
				model.NewCell(rr.ID, 2, rr.Cell(2)))
			return []model.Violation{v}
		},
	}
	res, err := DetectRule(ctx, r, rel)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		seen[v.Key()] = true
	}
	// CoBlock pairs are ordered both ways but dedup keeps each once.
	if len(res.Violations) != 2 {
		t.Errorf("coblock violations = %d, want 2 (deduped)", len(res.Violations))
	}
}

func TestUnaryRule(t *testing.T) {
	ctx := engine.New(4)
	rel := exampleTax()
	r := &Rule{
		ID:    "salaryCap",
		Unary: true,
		Detect: func(it Item) []model.Violation {
			t := it.One()
			if t.Cell(4).Float() > 85000 {
				return []model.Violation{model.NewViolation("salaryCap",
					model.NewCell(t.ID, 4, t.Cell(4)))}
			}
			return nil
		},
		GenFix: func(v model.Violation) []model.Fix {
			return []model.Fix{model.NewConstFix(v.Cells[0], model.OpLE, model.F(85000))}
		},
	}
	res, err := DetectRule(ctx, r, rel)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 1 {
		t.Fatalf("unary violations = %d, want 1 (t4 at 88000)", len(res.Violations))
	}
	if res.Violations[0].Cells[0].TupleID != 4 {
		t.Errorf("wrong tuple: %v", res.Violations[0])
	}
}

func TestCustomIterate(t *testing.T) {
	// Iterate that only pairs adjacent tuples within a block.
	ctx := engine.New(2)
	rel := exampleTax()
	var calls atomic.Int32
	r := &Rule{
		ID:    "adjacent",
		Block: func(t model.Tuple) model.Value { return t.Cell(3) }, // state
		Iterate: func(blocks [][]model.Tuple) []Item {
			calls.Add(1)
			us := blocks[0]
			var out []Item
			for i := 0; i+1 < len(us); i++ {
				out = append(out, PairItem(us[i], us[i+1]))
			}
			return out
		},
		Detect: func(it Item) []model.Violation {
			return []model.Violation{model.NewViolation("adjacent",
				model.NewCell(it.Left().ID, 0, it.Left().Cell(0)),
				model.NewCell(it.Right().ID, 0, it.Right().Cell(0)))}
		},
	}
	res, err := DetectRule(ctx, r, rel)
	if err != nil {
		t.Fatal(err)
	}
	// States: NY(1), CA(3: adjacent pairs 2), IL(2: adjacent pairs 1) = 3.
	if len(res.Violations) != 3 {
		t.Errorf("custom iterate violations = %d, want 3", len(res.Violations))
	}
	if calls.Load() == 0 {
		t.Error("custom iterate should be invoked")
	}
}

func TestDetectPanicSurfacesAsError(t *testing.T) {
	ctx := engine.New(2)
	rel := exampleTax()
	r := &Rule{
		ID:     "boom",
		Detect: func(Item) []model.Violation { panic("detect exploded") },
	}
	_, err := DetectRule(ctx, r, rel)
	if err == nil || !strings.Contains(err.Error(), "detect exploded") {
		t.Fatalf("detect panic should surface: %v", err)
	}
}

func TestDetectRulesMultiRule(t *testing.T) {
	ctx := engine.New(4)
	res, err := DetectRules(ctx, []*Rule{fdRule(), dcRule()}, exampleTax())
	if err != nil {
		t.Fatal(err)
	}
	byRule := map[string]int{}
	for _, v := range res.Violations {
		byRule[v.RuleID]++
	}
	if byRule["phiF"] != 2 || byRule["phiD"] != 3 {
		t.Errorf("per-rule counts = %v", byRule)
	}
}
