package core

import (
	"testing"

	"bigdansing/internal/datagen"
	"bigdansing/internal/engine"
	"bigdansing/internal/mapred"
	"bigdansing/internal/model"
)

// coBlockRule is a doubly-keyed self join (two branches, CoBlock).
func coBlockRule() (*Rule, *model.Relation) {
	s := model.MustParseSchema("c_name,c_city,s_name,s_city")
	rel := model.NewRelation("cs", s)
	rel.Append(
		model.NewTuple(1, model.S("acme"), model.S("NY"), model.S("zenith"), model.S("LA")),
		model.NewTuple(2, model.S("zenith"), model.S("SF"), model.S("acme"), model.S("NY")),
		model.NewTuple(3, model.S("orbit"), model.S("CH"), model.S("orbit"), model.S("CH")),
		model.NewTuple(4, model.S("nova"), model.S("SE"), model.S("nova"), model.S("PD")),
	)
	return &Rule{
		ID:         "dc1",
		Block:      func(tp model.Tuple) model.Value { return tp.Cell(0) }, // c_name
		BlockRight: func(tp model.Tuple) model.Value { return tp.Cell(2) }, // s_name
		Detect: func(it Item) []model.Violation {
			c, sup := it.Left(), it.Right()
			if c.Cell(0).Equal(sup.Cell(2)) && !c.Cell(1).Equal(sup.Cell(3)) {
				return []model.Violation{model.NewViolation("dc1",
					model.NewCell(c.ID, 1, c.Cell(1)),
					model.NewCell(sup.ID, 3, sup.Cell(3)))}
			}
			return nil
		},
	}, rel
}

// TestDiskBackendMatchesLocal: the disk backend runs the one executor, so
// every physical operator — the ones the old hand-written MapReduce pipeline
// rejected included — must find exactly the local backend's violations and
// fixes, and plans that shuffle must really have gone through run files.
func TestDiskBackendMatchesLocal(t *testing.T) {
	coRule, coRel := coBlockRule()
	cases := []struct {
		name string
		rule *Rule
		rel  *model.Relation
		impl IterImpl
	}{
		{name: "fd blocked", rule: fdRule(), rel: exampleTax(), impl: IterUniquePairs},
		{name: "dc OCJoin", rule: dcRule(), rel: datagen.TaxB(400, 0.05, 3).Dirty, impl: IterOCJoin},
		{name: "two-branch CoBlock", rule: coRule, rel: coRel, impl: IterCoBlockPairs},
		{name: "unary", impl: IterSingles, rel: exampleTax(), rule: &Rule{
			ID:    "cap",
			Unary: true,
			Detect: func(it Item) []model.Violation {
				tp := it.One()
				if tp.Cell(4).Float() > 85000 {
					return []model.Violation{model.NewViolation("cap",
						model.NewCell(tp.ID, 4, tp.Cell(4)))}
				}
				return nil
			},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pp := mustPlanRule(t, c.rule, c.rel)
			if impl := pp.Pipelines[0].Impl; impl != c.impl {
				t.Fatalf("planned %v, want %v", impl, c.impl)
			}
			want, err := RunPlanSpark(engine.New(4), pp)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Violations) == 0 {
				t.Fatal("case finds no violations; it proves nothing")
			}
			eng, err := mapred.New(t.TempDir(), 4)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			got, err := RunPlanMapReduce(eng, pp, 3, 3)
			if err != nil {
				t.Fatal(err)
			}
			assertSameOutcome(t, want, got)
			// Unary rules never exchange; everything else must have hit the
			// disk.
			if c.impl != IterSingles && (eng.Stats().BytesSpilled() == 0 || eng.Stats().BytesRead() == 0) {
				t.Errorf("stayed in memory: %d bytes spilled, %d read", eng.Stats().BytesSpilled(), eng.Stats().BytesRead())
			}
		})
	}
}

// TestMapReduceScopeRuns verifies Scope executes on the disk backend.
func TestMapReduceScopeRuns(t *testing.T) {
	rel := exampleTax()
	r := fdRule()
	// Scope that drops California rows entirely: the two CA violations of
	// phiF disappear.
	r.Scope = func(tp model.Tuple) []model.Tuple {
		if tp.Cell(3).String() == "CA" {
			return nil
		}
		return []model.Tuple{tp}
	}
	eng, err := mapred.New(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	res, err := DetectRuleMapReduce(eng, r, rel, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("scoped-out violations still detected: %v", res.Violations)
	}
}

// TestMapReduceDetectPanic surfaces a Detect panic from inside a task.
func TestMapReduceDetectPanic(t *testing.T) {
	rel := exampleTax()
	r := fdRule()
	r.Detect = func(Item) []model.Violation { panic("reducer boom") }
	eng, err := mapred.New(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := DetectRuleMapReduce(eng, r, rel, 2, 2); err == nil {
		t.Fatal("detect panic should surface")
	}
}

// TestDedupShuffleCrossesDiskExchange: the violation dedup (Distinct keyed
// on model.ViolationKey) goes through the disk exchange like every other
// shuffle, instead of falling back to the coordinator's memory.
func TestDedupShuffleCrossesDiskExchange(t *testing.T) {
	eng, err := mapred.New(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := mustContext(t, engine.Config{Parallelism: 3, Exchange: eng})
	var vs []model.Violation
	for i := int64(0); i < 40; i++ {
		l, r := model.NewCell(i, 1, model.S("a")), model.NewCell(i+100, 1, model.S("b"))
		vs = append(vs, model.NewViolation("phi", l, r), model.NewViolation("phi", r, l))
	}
	got, err := engine.Distinct(engine.Parallelize(ctx, vs, 0), model.Violation.MapKey).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 40 {
		t.Errorf("Distinct kept %d of 80 violations, want 40", len(got))
	}
	if eng.Stats().BytesSpilled() == 0 {
		t.Error("the dedup shuffle wrote nothing to the disk exchange")
	}
}
