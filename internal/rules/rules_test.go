package rules

import (
	"fmt"
	"reflect"
	"testing"

	"bigdansing/internal/core"
	"bigdansing/internal/engine"
	"bigdansing/internal/model"
)

func taxRelation() *model.Relation {
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

func TestParseFD(t *testing.T) {
	fd, err := ParseFD("phi1", "zipcode -> city")
	if err != nil {
		t.Fatal(err)
	}
	if len(fd.LHS) != 1 || fd.LHS[0] != "zipcode" || fd.RHS[0] != "city" {
		t.Errorf("fd = %+v", fd)
	}
	multi, err := ParseFD("phi8", "providerID -> city, phone")
	if err != nil {
		t.Fatal(err)
	}
	if len(multi.RHS) != 2 {
		t.Errorf("multi rhs = %v", multi.RHS)
	}
	if _, err := ParseFD("bad", "no arrow"); err == nil {
		t.Error("missing arrow should fail")
	}
	if _, err := ParseFD("bad", "-> city"); err == nil {
		t.Error("empty lhs should fail")
	}
}

func TestFDCompileAndDetect(t *testing.T) {
	rel := taxRelation()
	fd, _ := ParseFD("phi1", "zipcode -> city")
	rule, err := fd.Compile(rel.Schema)
	if err != nil {
		t.Fatal(err)
	}
	ctx := engine.New(4)
	res, err := core.DetectRule(ctx, rule, rel)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 2 {
		t.Fatalf("violations = %d, want 2 ((t2,t4),(t4,t6))", len(res.Violations))
	}
	for _, v := range res.Violations {
		for _, c := range v.Cells {
			if rel.Schema.Name(c.Col) != "city" || c.Col != 2 {
				t.Errorf("violation cell should address original city column: %+v", c)
			}
		}
	}
	// Fixes equate the two cities.
	for _, fs := range res.FixSets {
		if len(fs.Fixes) != 1 || fs.Fixes[0].Op != model.OpEQ || !fs.Fixes[0].RightIsCell {
			t.Errorf("fd fix = %v", fs.Fixes)
		}
	}
}

func TestFDUnknownAttr(t *testing.T) {
	rel := taxRelation()
	fd, _ := ParseFD("phiX", "zipcode -> nothere")
	if _, err := fd.Compile(rel.Schema); err == nil {
		t.Error("unknown attribute should fail")
	}
}

func TestFDMultiAttrLHS(t *testing.T) {
	rel := taxRelation()
	fd, _ := ParseFD("phiM", "city, state -> zipcode")
	rule, err := fd.Compile(rel.Schema)
	if err != nil {
		t.Fatal(err)
	}
	ctx := engine.New(4)
	res, err := core.DetectRule(ctx, rule, rel)
	if err != nil {
		t.Fatal(err)
	}
	// (CH,IL) appears with zipcodes 60601 and 68270 -> 1 violation.
	if len(res.Violations) != 1 {
		t.Fatalf("violations = %d, want 1: %v", len(res.Violations), res.Violations)
	}
}

func TestParseDC(t *testing.T) {
	dc, err := ParseDC("phi2", "t1.salary > t2.salary & t1.rate < t2.rate")
	if err != nil {
		t.Fatal(err)
	}
	if len(dc.Preds) != 2 {
		t.Fatalf("preds = %d", len(dc.Preds))
	}
	if dc.Preds[0].Op != model.OpGT || dc.Preds[0].LeftTuple != 1 || dc.Preds[0].RightTuple != 2 {
		t.Errorf("pred 0 = %+v", dc.Preds[0])
	}
	if dc.Unary() {
		t.Error("binary DC")
	}
	if dc.Symmetric() {
		t.Error("ordering DC is asymmetric")
	}

	cdc, err := ParseDC("c", "t1.role = 'M' & t1.city != 'NYC'")
	if err != nil {
		t.Fatal(err)
	}
	if !cdc.Unary() {
		t.Error("constant-only DC is unary")
	}
	if !cdc.Preds[0].RightIsConst || cdc.Preds[0].Const != model.S("M") {
		t.Errorf("const pred = %+v", cdc.Preds[0])
	}

	if _, err := ParseDC("bad", "t1.a ~ t2.a"); err == nil {
		t.Error("unknown operator should fail")
	}
	if _, err := ParseDC("bad", ""); err == nil {
		t.Error("empty DC should fail")
	}
	if _, err := ParseDC("bad", "t3.a = t1.a"); err == nil {
		t.Error("unknown tuple variable should fail")
	}
}

func TestDCCompileOrderingUsesOCJoin(t *testing.T) {
	rel := taxRelation()
	dc, _ := ParseDC("phi2", "t1.rate > t2.rate & t1.salary < t2.salary")
	rule, err := dc.Compile(rel.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if len(rule.OrderConds) != 2 {
		t.Fatalf("order conds = %v", rule.OrderConds)
	}
	lp, _ := core.PlanRule(rule, rel)
	pp, err := core.NewPlanner().Plan(lp)
	if err != nil {
		t.Fatal(err)
	}
	if pp.Pipelines[0].Impl != core.IterOCJoin {
		t.Fatalf("impl = %v, want OCJoin", pp.Pipelines[0].Impl)
	}
	ctx := engine.New(4)
	res, err := core.RunPlanSpark(ctx, pp)
	if err != nil {
		t.Fatal(err)
	}
	// Violating pairs in this data: (1,2), (5,2), (5,1).
	if len(res.Violations) != 3 {
		t.Fatalf("violations = %d, want 3: %v", len(res.Violations), res.Violations)
	}
	// GenFix emits a negation per predicate.
	for _, fs := range res.FixSets {
		if len(fs.Fixes) != 2 {
			t.Errorf("dc fixes = %v", fs.Fixes)
		}
	}
}

func TestDCCompileEqualityUsesBlocking(t *testing.T) {
	rel := taxRelation()
	// FD phi1 as a DC: same zipcode, different city.
	dc, _ := ParseDC("phi1dc", "t1.zipcode = t2.zipcode & t1.city != t2.city")
	rule, err := dc.Compile(rel.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if rule.Block == nil {
		t.Fatal("equality DC should block")
	}
	if rule.BlockRight != nil {
		t.Error("same-attribute equality should not need CoBlock")
	}
	if !rule.Symmetric {
		t.Error("=/!= same-attribute DC is symmetric")
	}
	ctx := engine.New(4)
	res, err := core.DetectRule(ctx, rule, rel)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 2 {
		t.Fatalf("violations = %d, want 2", len(res.Violations))
	}
}

func TestDCCoBlockForDifferentAttrs(t *testing.T) {
	// Rule (1)-style: t1.c_name = t2.s_name across one table.
	s := model.MustParseSchema("c_name,c_city,s_name,s_city")
	rel := model.NewRelation("cs", s)
	rel.Append(
		model.NewTuple(1, model.S("acme"), model.S("NY"), model.S("zenith"), model.S("LA")),
		model.NewTuple(2, model.S("zenith"), model.S("SF"), model.S("acme"), model.S("NY")),
	)
	dc, _ := ParseDC("dc1", "t1.c_name = t2.s_name & t1.c_city != t2.s_city")
	rule, err := dc.Compile(rel.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if rule.Block == nil || rule.BlockRight == nil {
		t.Fatal("different-attribute equality should CoBlock")
	}
	ctx := engine.New(2)
	res, err := core.DetectRule(ctx, rule, rel)
	if err != nil {
		t.Fatal(err)
	}
	// t1.c_name=acme matches t2.s_name=acme; c_city NY = s_city NY -> no
	// violation. t2.c_name=zenith matches t1.s_name=zenith; SF != LA -> 1.
	if len(res.Violations) != 1 {
		t.Fatalf("violations = %d, want 1: %v", len(res.Violations), res.Violations)
	}
}

func TestUnaryDC(t *testing.T) {
	rel := taxRelation()
	dc, _ := ParseDC("cap", "t1.salary > 85000")
	rule, err := dc.Compile(rel.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if !rule.Unary {
		t.Fatal("constant DC should compile unary")
	}
	ctx := engine.New(2)
	res, err := core.DetectRule(ctx, rule, rel)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 1 || res.Violations[0].Cells[0].TupleID != 4 {
		t.Fatalf("violations = %v", res.Violations)
	}
	// The fix negates the predicate: salary <= 85000.
	fixes := res.FixSets[0].Fixes
	if len(fixes) != 1 || fixes[0].Op != model.OpLE || fixes[0].RightIsCell {
		t.Errorf("unary fix = %v", fixes)
	}
}

func TestParseCFDAndCompile(t *testing.T) {
	rel := taxRelation()
	// In zip 90210 the city must be LA; elsewhere plain FD semantics.
	cfd, err := ParseCFD("cfd1", "zipcode -> city | 90210 => LA ; _ => _")
	if err != nil {
		t.Fatal(err)
	}
	if len(cfd.Tableau) != 2 {
		t.Fatalf("tableau = %v", cfd.Tableau)
	}
	rs, err := cfd.Compile(rel.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("compiled rules = %d, want unary + pair", len(rs))
	}
	ctx := engine.New(4)
	res, err := core.DetectRules(ctx, rs, rel)
	if err != nil {
		t.Fatal(err)
	}
	// Unary: t4 (90210, SF) breaks the constant row. Pair: (t2,t4), (t4,t6).
	var unary, pair int
	for _, v := range res.Violations {
		if len(v.Cells) == 1 {
			unary++
		} else {
			pair++
		}
	}
	if unary != 1 || pair != 2 {
		t.Fatalf("unary = %d, pair = %d; violations: %v", unary, pair, res.Violations)
	}
}

func TestCFDParseErrors(t *testing.T) {
	if _, err := ParseCFD("x", "a -> b"); err == nil {
		t.Error("missing tableau should fail")
	}
	if _, err := ParseCFD("x", "a -> b | 1, 2 => 3"); err == nil {
		t.Error("arity mismatch should fail")
	}
	if _, err := ParseCFD("x", "a -> b | 1 ; 2"); err == nil {
		t.Error("row missing => should fail")
	}
}

func TestDedupRule(t *testing.T) {
	s := model.MustParseSchema("id:int,name,phone")
	rel := model.NewRelation("cust", s)
	rel.Append(
		model.NewTuple(1, model.I(1), model.S("Jonathan Smith"), model.S("555-0100")),
		model.NewTuple(2, model.I(2), model.S("Jonathan Smith"), model.S("555-0100")), // exact dup
		model.NewTuple(3, model.I(3), model.S("Jonathon Smith"), model.S("555-0100")), // edit dup
		model.NewTuple(4, model.I(4), model.S("Alice Wong"), model.S("555-0999")),
	)
	rule, err := DedupRule(DedupConfig{ID: "phi4", NameAttr: "name", PhoneAttr: "phone"}, s)
	if err != nil {
		t.Fatal(err)
	}
	ctx := engine.New(4)
	res, err := core.DetectRule(ctx, rule, rel)
	if err != nil {
		t.Fatal(err)
	}
	// Pairs (1,2), (1,3), (2,3) are duplicates.
	if len(res.Violations) != 3 {
		t.Fatalf("duplicate pairs = %d, want 3: %v", len(res.Violations), res.Violations)
	}
	if _, err := DedupRule(DedupConfig{ID: "x", NameAttr: "ghost"}, s); err == nil {
		t.Error("unknown attribute should fail")
	}
}

func TestDedupBlockingLimitsComparisons(t *testing.T) {
	s := model.MustParseSchema("id:int,name")
	rel := model.NewRelation("cust", s)
	names := []string{"Smith", "Smyth", "Jones", "Johns", "Brown", "Braun"}
	for i, n := range names {
		rel.Append(model.NewTuple(int64(i), model.I(int64(i)), model.S(n)))
	}
	rule, err := DedupRule(DedupConfig{ID: "p", NameAttr: "name", BlockBySoundex: true, NameThreshold: 0.6}, s)
	if err != nil {
		t.Fatal(err)
	}
	ctx := engine.New(2)
	res, err := core.DetectRule(ctx, rule, rel)
	if err != nil {
		t.Fatal(err)
	}
	// Soundex blocks: {Smith,Smyth}, {Jones,Johns}(J520/J520?), {Brown,Braun}.
	if len(res.Violations) < 2 {
		t.Errorf("expected at least the Smith/Smyth and Brown/Braun pairs, got %v", res.Violations)
	}
}

func TestCountyRule(t *testing.T) {
	s := model.MustParseSchema("name,city")
	rel := model.NewRelation("people", s)
	rel.Append(
		model.NewTuple(1, model.S("William Marsh"), model.S("Durham")),
		model.NewTuple(2, model.S("William Marsch"), model.S("Chapel Hill")), // same county
		model.NewTuple(3, model.S("William Marsh"), model.S("Seattle")),      // other county
	)
	county := map[string]string{"Durham": "Durham County", "Chapel Hill": "Durham County", "Seattle": "King County"}
	rule, err := CountyRule("phiU", s, "name", "city", county, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	ctx := engine.New(2)
	res, err := core.DetectRule(ctx, rule, rel)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 1 {
		t.Fatalf("violations = %d, want 1 (t1-t2 only; t3 is in another county): %v", len(res.Violations), res.Violations)
	}
	ids := res.Violations[0].TupleIDs()
	if ids[0] != 1 || ids[1] != 2 {
		t.Errorf("duplicate pair = %v", ids)
	}
}

// legacyOptimize is a verbatim copy of the pre-planner core.Optimize rule
// switch. The property test below pins the static planner to it: for every
// rule family the chosen implementations must match, and the rendered Ops
// may differ only by the partitioning markers the planner now names
// (RangePartition for OCJoin, Co-Block for co-grouped pairs).
func legacyOptimize(lp *core.LogicalPlan) (*core.PhysicalPlan, error) {
	lp = core.Consolidate(lp)
	pp := &core.PhysicalPlan{Name: lp.Name, Logical: lp, SharedScans: lp.SharedScans}
	for _, p := range lp.Pipelines {
		phys := core.PhysicalPipeline{Pipeline: p}
		var ops []string
		for _, b := range p.Branches {
			if len(b.Scopes) > 0 {
				ops = append(ops, "PScope")
			}
		}
		switch {
		case p.Unary:
			phys.Impl = core.IterSingles
		case p.Iterate != nil:
			phys.Impl = core.IterCustom
			if len(p.Branches) > 1 {
				ops = append(ops, "Co-Block")
			} else if p.Branches[0].Block != nil {
				ops = append(ops, "PBlock")
			}
		case len(p.OrderConds) > 0:
			phys.Impl = core.IterOCJoin
		case len(p.Branches) > 1:
			phys.Impl = core.IterCoBlockPairs
			for _, b := range p.Branches {
				if b.Block == nil {
					return nil, fmt.Errorf("core: pipeline %s: CoBlock branches must all have Block operators", p.RuleID)
				}
			}
		case p.Branches[0].Block != nil && p.Symmetric:
			phys.Impl = core.IterUniquePairs
			ops = append(ops, "PBlock")
		case p.Branches[0].Block != nil:
			phys.Impl = core.IterOrderedPairs
			ops = append(ops, "PBlock")
		case p.Symmetric:
			phys.Impl = core.IterUniquePairs
		default:
			phys.Impl = core.IterOrderedPairs
		}
		ops = append(ops, phys.Impl.String(), "PDetect")
		if p.GenFix != nil {
			ops = append(ops, "PGenFix")
		}
		phys.Ops = ops
		pp.Pipelines = append(pp.Pipelines, phys)
	}
	return pp, nil
}

// stripPlannerMarkers removes from ops exactly the occurrences of the new
// partitioning markers that the legacy rendering lacked.
func stripPlannerMarkers(ops, legacy []string) []string {
	count := func(ss []string, m string) int {
		n := 0
		for _, s := range ss {
			if s == m {
				n++
			}
		}
		return n
	}
	out := append([]string(nil), ops...)
	for _, m := range []string{"RangePartition", "Co-Block"} {
		for count(out, m) > count(legacy, m) {
			for i, s := range out {
				if s == m {
					out = append(out[:i], out[i+1:]...)
					break
				}
			}
		}
	}
	return out
}

// TestStaticPlannerMatchesLegacyOptimize is the plan-identity property
// test over the full FD/DC/CFD compilation suite.
func TestStaticPlannerMatchesLegacyOptimize(t *testing.T) {
	rel := taxRelation()
	var suite []*core.Rule

	fd1, _ := ParseFD("phi1", "zipcode -> city")
	r1, err := fd1.Compile(rel.Schema)
	if err != nil {
		t.Fatal(err)
	}
	fdM, _ := ParseFD("phiM", "city, state -> zipcode")
	rM, err := fdM.Compile(rel.Schema)
	if err != nil {
		t.Fatal(err)
	}
	dcO, _ := ParseDC("phi2", "t1.rate > t2.rate & t1.salary < t2.salary")
	rO, err := dcO.Compile(rel.Schema)
	if err != nil {
		t.Fatal(err)
	}
	dcE, _ := ParseDC("phi1dc", "t1.zipcode = t2.zipcode & t1.city != t2.city")
	rE, err := dcE.Compile(rel.Schema)
	if err != nil {
		t.Fatal(err)
	}
	dcU, _ := ParseDC("cap", "t1.salary > 85000")
	rU, err := dcU.Compile(rel.Schema)
	if err != nil {
		t.Fatal(err)
	}
	cfd, err := ParseCFD("cfd1", "zipcode -> city | 90210 => LA ; _ => _")
	if err != nil {
		t.Fatal(err)
	}
	rsC, err := cfd.Compile(rel.Schema)
	if err != nil {
		t.Fatal(err)
	}
	suite = append(suite, r1, rM, rO, rE, rU)
	suite = append(suite, rsC...)

	for _, r := range suite {
		lpA, err := core.PlanRule(r, rel)
		if err != nil {
			t.Fatal(err)
		}
		want, err := legacyOptimize(lpA)
		if err != nil {
			t.Fatal(err)
		}
		lpB, err := core.PlanRule(r, rel)
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.NewPlanner().Plan(lpB)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Pipelines) != len(want.Pipelines) {
			t.Fatalf("%s: pipelines %d != %d", r.ID, len(got.Pipelines), len(want.Pipelines))
		}
		for i := range got.Pipelines {
			g, w := got.Pipelines[i], want.Pipelines[i]
			if g.Impl != w.Impl {
				t.Errorf("%s[%d]: impl %v != legacy %v", r.ID, i, g.Impl, w.Impl)
			}
			if len(g.Branches) != len(w.Branches) {
				t.Errorf("%s[%d]: branches %d != legacy %d", r.ID, i, len(g.Branches), len(w.Branches))
			}
			if stripped := stripPlannerMarkers(g.Ops, w.Ops); !reflect.DeepEqual(stripped, w.Ops) {
				t.Errorf("%s[%d]: ops %v != legacy %v", r.ID, i, g.Ops, w.Ops)
			}
		}
	}

	// The consolidated multi-rule plan must agree too.
	lpA, err := core.PlanRules(suite, rel)
	if err != nil {
		t.Fatal(err)
	}
	want, err := legacyOptimize(lpA)
	if err != nil {
		t.Fatal(err)
	}
	lpB, err := core.PlanRules(suite, rel)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.NewPlanner().Plan(lpB)
	if err != nil {
		t.Fatal(err)
	}
	if got.SharedScans != want.SharedScans || len(got.Pipelines) != len(want.Pipelines) {
		t.Fatalf("multi-rule: scans %d/%d pipelines %d/%d", got.SharedScans, want.SharedScans, len(got.Pipelines), len(want.Pipelines))
	}
	for i := range got.Pipelines {
		if got.Pipelines[i].Impl != want.Pipelines[i].Impl {
			t.Errorf("multi-rule[%d]: impl %v != %v", i, got.Pipelines[i].Impl, want.Pipelines[i].Impl)
		}
	}
}
