package core_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bigdansing/internal/core"
	"bigdansing/internal/model"
)

var updatePlans = flag.Bool("update-plans", false, "rewrite testdata/plans.golden with the current plans")

// TestPlansGolden pins the physical plan, with its priced alternatives, of
// every oracle rule shape on its own and of one plan holding all of them
// plus a pair sharing one ID, under the rule-shape planner and under the
// cost planner. It guards the lowering of rules into plans: a change to how
// a rule becomes pipelines and branches shows up here as a diff.
func TestPlansGolden(t *testing.T) {
	schema := model.MustParseSchema(oracleSchema)
	rel := oracleData(80, 1)
	planners := []struct {
		name string
		pl   func() *core.Planner
	}{
		{"static", func() *core.Planner { return core.NewPlanner() }},
		{"cost", func() *core.Planner {
			return core.NewPlanner(core.WithCostModel(core.NewCostModel()), core.WithParallelism(4))
		}},
	}
	var b strings.Builder
	explain := func(title string, pl *core.Planner, lp *core.LogicalPlan, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", title, err)
		}
		pp, err := pl.Plan(lp)
		if err != nil {
			t.Fatalf("%s: %v", title, err)
		}
		b.WriteString("== " + title + "\n" + pp.Explain())
	}
	for _, p := range planners {
		var all []*core.Rule
		for _, sh := range oracleShapes {
			lp, err := core.PlanRule(sh.rule(t, schema), rel)
			explain(p.name+" "+sh.name, p.pl(), lp, err)
			all = append(all, sh.rule(t, schema))
		}
		for _, spec := range []string{"zipcode -> state", "city -> state"} {
			r := fd(spec)(t, schema)
			r.ID = "phiF"
			all = append(all, r)
		}
		lp, err := core.PlanRules(all, rel)
		explain(p.name+" all", p.pl(), lp, err)
	}
	got := b.String()

	path := filepath.Join("testdata", "plans.golden")
	if *updatePlans {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update-plans to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("plans changed.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
