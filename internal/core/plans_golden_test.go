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

// TestPlansGolden pins the physical plan of every oracle rule shape on its
// own and of one plan holding all of them plus a pair sharing one ID. It
// guards the lowering of rules into plans: a change to how a rule becomes
// pipelines and branches shows up here as a diff.
func TestPlansGolden(t *testing.T) {
	schema := model.MustParseSchema(oracleSchema)
	rel := oracleData(80, 1)
	var b strings.Builder
	explain := func(title string, lp *core.LogicalPlan, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", title, err)
		}
		pp, err := core.NewPlanner().Plan(lp)
		if err != nil {
			t.Fatalf("%s: %v", title, err)
		}
		b.WriteString("== " + title + "\n" + pp.Explain())
	}
	var all []*core.Rule
	for _, sh := range oracleShapes {
		lp, err := core.PlanRule(sh.rule(t, schema), rel)
		explain("static "+sh.name, lp, err)
		all = append(all, sh.rule(t, schema))
	}
	for _, spec := range []string{"zipcode -> state", "city -> state"} {
		r := fd(spec)(t, schema)
		r.ID = "phiF"
		all = append(all, r)
	}
	lp, err := core.PlanRules(all, rel)
	explain("static all", lp, err)
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
