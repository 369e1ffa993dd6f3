package rules

import (
	"reflect"
	"slices"
	"testing"

	"bigdansing/internal/core"
	"bigdansing/internal/engine"
	"bigdansing/internal/model"
)

// TestDCMixedEqualityOrderingConstant compiles the c2-style DC of
// Appendix E: equality join + constants + an ordering comparison. The
// equality predicate drives blocking; the rest evaluate in Detect.
func TestDCMixedEqualityOrderingConstant(t *testing.T) {
	s := model.MustParseSchema("gid:int,role,city,sal:float")
	rel := model.NewRelation("G", s)
	add := func(id int64, role, city string, sal float64) {
		rel.Append(model.NewTuple(id, model.I(id), model.S(role), model.S(city), model.F(sal)))
	}
	add(1, "M", "NYC", 100000)
	add(2, "M", "SF", 120000) // violates c2 with t1: same role, t1 in NYC, t2 not, t2 earns more
	add(3, "M", "SF", 90000)  // no violation: earns less than t1
	add(4, "E", "NYC", 50000)
	add(5, "E", "LA", 60000) // violates with t4

	dc, err := ParseDC("c2", "t1.role = t2.role & t1.city = 'NYC' & t2.city != 'NYC' & t2.sal > t1.sal")
	if err != nil {
		t.Fatal(err)
	}
	rule, err := dc.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	if rule.Block == nil {
		t.Fatal("equality predicate should enable blocking")
	}
	if rule.Symmetric {
		t.Error("constants break symmetry; ordered pairs required")
	}
	ctx := engine.New(4)
	res, err := core.DetectRule(ctx, rule, rel)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 2 {
		t.Fatalf("violations = %d, want 2: %v", len(res.Violations), res.Violations)
	}
	pairs := map[[2]int64]bool{}
	for _, v := range res.Violations {
		ids := v.TupleIDs()
		pairs[[2]int64{ids[0], ids[1]}] = true
	}
	if !pairs[[2]int64{1, 2}] || !pairs[[2]int64{4, 5}] {
		t.Errorf("pairs = %v, want {1,2} and {4,5}", pairs)
	}
	// GenFix negates each predicate: 4 possible fixes per violation.
	for _, fs := range res.FixSets {
		if len(fs.Fixes) != 4 {
			t.Errorf("fixes = %d, want 4 (one negation per predicate): %v", len(fs.Fixes), fs.Fixes)
		}
	}
}

// TestDCOrderingPlusNEQ compiles a DC whose cross-tuple predicates mix
// ordering with != — OCJoin does not apply (the != is not an ordering
// comparison), so the planner falls back to a cross product.
func TestDCOrderingPlusNEQ(t *testing.T) {
	s := model.MustParseSchema("a:float,b")
	dc, err := ParseDC("mix", "t1.a > t2.a & t1.b != t2.b")
	if err != nil {
		t.Fatal(err)
	}
	rule, err := dc.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rule.OrderConds) != 0 {
		t.Error("mixed ordering+NEQ must not claim OCJoin")
	}
	rel := model.NewRelation("r", s)
	rel.Append(
		model.NewTuple(1, model.F(2), model.S("x")),
		model.NewTuple(2, model.F(1), model.S("y")),
		model.NewTuple(3, model.F(1), model.S("x")),
	)
	ctx := engine.New(2)
	res, err := core.DetectRule(ctx, rule, rel)
	if err != nil {
		t.Fatal(err)
	}
	// (1,2): a 2>1 and b x!=y -> violation. (1,3): 2>1, x==x -> no.
	if len(res.Violations) != 1 {
		t.Fatalf("violations = %d: %v", len(res.Violations), res.Violations)
	}
}

// TestCFDMultipleRHS checks a CFD whose embedded FD has two RHS attributes
// with per-attribute patterns.
func TestCFDMultipleRHS(t *testing.T) {
	s := model.MustParseSchema("zip:int,city,state")
	rel := model.NewRelation("r", s)
	rel.Append(
		model.NewTuple(1, model.I(90210), model.S("LA"), model.S("CA")),
		model.NewTuple(2, model.I(90210), model.S("SF"), model.S("CA")), // city breaks const row
		model.NewTuple(3, model.I(10011), model.S("NY"), model.S("NY")),
		model.NewTuple(4, model.I(10011), model.S("NY"), model.S("NJ")), // state breaks wildcard row
	)
	cfd, err := ParseCFD("c", "zip -> city, state | 90210 => LA, CA ; _ => _, _")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := cfd.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	ctx := engine.New(2)
	res, err := core.DetectRules(ctx, rs, rel)
	if err != nil {
		t.Fatal(err)
	}
	var unary, pair int
	for _, v := range res.Violations {
		if len(v.Cells) == 1 {
			unary++
		} else {
			pair++
		}
	}
	// Unary: t2 city != LA. Pair: (1,2) city mismatch and (3,4) state mismatch.
	if unary != 1 {
		t.Errorf("unary = %d, want 1", unary)
	}
	if pair != 2 {
		t.Errorf("pair = %d, want 2: %v", pair, res.Violations)
	}
}

// TestFDWholeKeyRHS runs phi8's shape: one LHS attribute determining two
// RHS attributes, emitting one violation per disagreeing attribute.
func TestFDWholeKeyRHS(t *testing.T) {
	s := model.MustParseSchema("pid:int,city,phone")
	rel := model.NewRelation("r", s)
	rel.Append(
		model.NewTuple(1, model.I(7), model.S("NY"), model.S("111")),
		model.NewTuple(2, model.I(7), model.S("LA"), model.S("222")),
	)
	fd, _ := ParseFD("phi8", "pid -> city, phone")
	rule, err := fd.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	ctx := engine.New(2)
	res, err := core.DetectRule(ctx, rule, rel)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 2 {
		t.Fatalf("violations = %d, want 2 (city and phone)", len(res.Violations))
	}
}

// TestDCGenFixNamesPredicateTuple checks that each predicate's fix reads
// the cells of the tuples the predicate names. The third predicate below
// relates t2's salary to t1's rate, while t1's salary comes first among
// the violation's salary cells; φ2's layout, in which every predicate's
// pair lies side by side, must stay as it was.
func TestDCGenFixNamesPredicateTuple(t *testing.T) {
	rel := taxRelation()
	t1, t2 := rel.Tuples[0], rel.Tuples[4] // Annie (24000, 15), Robert (15000, 20)
	type side struct {
		tid int64
		col int
	}
	const salary, rate = 4, 5
	for _, tc := range []struct {
		spec   string
		cells  []side
		fixes  [][2]side
		shared []bool // whether each cell fix is a window on the violation's cells
	}{
		{
			spec:   "t1.rate < t2.rate & t1.salary > t2.salary & t2.salary > t1.rate",
			cells:  []side{{1, rate}, {5, rate}, {1, salary}, {5, salary}},
			fixes:  [][2]side{{{1, rate}, {5, rate}}, {{1, salary}, {5, salary}}, {{5, salary}, {1, rate}}},
			shared: []bool{true, true, false},
		},
		{
			spec:   "t1.salary > t2.salary & t1.rate < t2.rate",
			cells:  []side{{1, salary}, {5, salary}, {1, rate}, {5, rate}},
			fixes:  [][2]side{{{1, salary}, {5, salary}}, {{1, rate}, {5, rate}}},
			shared: []bool{true, true},
		},
	} {
		dc, err := ParseDC("dc", tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		rule, err := dc.Compile(rel.Schema)
		if err != nil {
			t.Fatal(err)
		}
		var out core.Output
		rule.Detect(core.PairItem(t1, t2), &out)
		vs := out.Violations()
		if len(vs) != 1 {
			t.Fatalf("%s: %d violations of (t1, t5), want 1", tc.spec, len(vs))
		}
		v := vs[0]
		var cells []side
		for _, c := range v.Cells {
			cells = append(cells, side{c.TupleID, c.Col})
		}
		if !reflect.DeepEqual(cells, tc.cells) {
			t.Fatalf("%s: cells %v, want %v", tc.spec, cells, tc.cells)
		}
		fixes := rule.GenFix(nil, v)
		if len(fixes) != len(tc.fixes) {
			t.Fatalf("%s: %d fixes, want %d", tc.spec, len(fixes), len(tc.fixes))
		}
		for i, f := range fixes {
			l, r := f.Left(), f.RightCell()
			got := [2]side{{l.TupleID, l.Col}, {r.TupleID, r.Col}}
			if got != tc.fixes[i] || !f.RightIsCell {
				t.Errorf("%s: fix %d is %v, want %v", tc.spec, i, f, tc.fixes[i])
			}
			if shared := &f.Cells()[0] == &v.Cells[slices.Index(v.Cells, l)]; shared != tc.shared[i] {
				t.Errorf("%s: fix %d shares the violation's cells: %v, want %v", tc.spec, i, shared, tc.shared[i])
			}
		}
	}
}
