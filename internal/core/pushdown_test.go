package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"bigdansing/internal/engine"
	"bigdansing/internal/model"
	"bigdansing/internal/storage"
)

// pushdownRule is an FD-shaped rule (zipcode -> city over the exampleTax
// schema) declaring its blocking attribute for storage pushdown.
func pushdownRule() *Rule {
	r := fdRule()
	r.BlockAttr = "zipcode"
	return r
}

func TestDetectFromStoreWithBlockPushdown(t *testing.T) {
	st, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rel := exampleTax()
	// Two replicas: content-partitioned on zipcode (pushdown target) and
	// round-robin.
	if _, err := st.Upload(rel, "zipcode", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Upload(rel, "", 3); err != nil {
		t.Fatal(err)
	}

	ctx := engine.New(4)
	want, err := DetectRule(ctx, pushdownRule(), rel)
	if err != nil {
		t.Fatal(err)
	}

	got, pushed, err := DetectRuleFromStore(ctx, st, "tax", pushdownRule())
	if err != nil {
		t.Fatal(err)
	}
	if !pushed {
		t.Fatal("zipcode replica should enable the Block pushdown")
	}
	if len(got.Violations) != len(want.Violations) {
		t.Fatalf("pushdown found %d violations, plain %d", len(got.Violations), len(want.Violations))
	}
	keys := map[string]bool{}
	for _, v := range want.Violations {
		keys[v.Key()] = true
	}
	for _, v := range got.Violations {
		if !keys[v.Key()] {
			t.Errorf("pushdown violation %v not in plain result", v)
		}
	}
}

func TestDetectFromStoreFallsBackWithoutMatchingReplica(t *testing.T) {
	st, _ := storage.Open(t.TempDir())
	rel := exampleTax()
	if _, err := st.Upload(rel, "city", 2); err != nil { // wrong attribute
		t.Fatal(err)
	}
	ctx := engine.New(2)
	got, pushed, err := DetectRuleFromStore(ctx, st, "tax", pushdownRule())
	if err != nil {
		t.Fatal(err)
	}
	if pushed {
		t.Error("no zipcode replica: pushdown must not claim to run")
	}
	if len(got.Violations) != 2 {
		t.Errorf("fallback should still detect: %d violations", len(got.Violations))
	}
}

func TestDetectFromStoreMissingDataset(t *testing.T) {
	st, _ := storage.Open(t.TempDir())
	ctx := engine.New(2)
	if _, _, err := DetectRuleFromStore(ctx, st, "ghost", pushdownRule()); err == nil {
		t.Error("missing dataset should error")
	}
}

func TestPushdownAvoidsShuffle(t *testing.T) {
	// With the Block pushdown, partitions are small and self-contained:
	// the per-partition plans shuffle only their own few tuples, while the
	// plain plan shuffles the whole dataset once. Verify the result parity
	// on a bigger relation and that both paths dedupe identically.
	st, _ := storage.Open(t.TempDir())
	s := model.MustParseSchema("name,zipcode:int,city,state,salary:float,rate:float")
	rel := model.NewRelation("tax", s)
	for i := int64(0); i < 500; i++ {
		city := "C" + model.I(i%40).String()
		if i%11 == 0 {
			city = "WRONG"
		}
		rel.Append(model.NewTuple(i, model.S("p"), model.I(10000+i%40), model.S(city), model.S("ST"), model.F(1), model.F(1)))
	}
	if _, err := st.Upload(rel, "zipcode", 8); err != nil {
		t.Fatal(err)
	}
	ctx := engine.New(4)
	plain, err := DetectRule(ctx, pushdownRule(), rel)
	if err != nil {
		t.Fatal(err)
	}
	pushed, ok, err := DetectRuleFromStore(ctx, st, "tax", pushdownRule())
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("pushdown expected")
	}
	if len(pushed.Violations) != len(plain.Violations) {
		t.Errorf("pushdown %d vs plain %d violations", len(pushed.Violations), len(plain.Violations))
	}
}

// TestMalformedPlanRejected hand-writes broken upload plans over a valid
// replica: every read and every detection from the store must return an
// error, never panic and never return a silently empty relation.
func TestMalformedPlanRejected(t *testing.T) {
	schema := exampleTax().Schema.String()
	plan := func(schema string, parts int64) string {
		return fmt.Sprintf(`{"name":"tax","schema":%q,"partition_attr":"zipcode","partitions":%d,"rows":6}`, schema, parts)
	}
	key := model.I(90210)
	for _, c := range []struct{ name, plan string }{
		{"zero-partitions", plan(schema, 0)},
		{"negative-partitions", plan(schema, -1)},
		{"huge-partitions", plan(schema, 1<<40)},
		{"not-json", `{"name":"tax","partitions":`},
		{"bad-schema", plan("name,zipcode:money", 2)},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := storage.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Upload(exampleTax(), "zipcode", 2); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "tax", "zipcode", "plan.json"), []byte(c.plan), 0o644); err != nil {
				t.Fatal(err)
			}
			mustFail := func(label string, call func() error) {
				t.Helper()
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("%s panicked: %v", label, p)
					}
				}()
				if err := call(); err == nil {
					t.Errorf("%s: no error", label)
				}
			}
			for _, opts := range []storage.ReadOptions{{Partition: -1}, {Partition: 0}, {Partition: -1, BlockKey: &key}} {
				mustFail(fmt.Sprintf("Read %+v", opts), func() error {
					_, err := st.Read("tax", "zipcode", opts)
					return err
				})
			}
			for _, r := range []*Rule{pushdownRule(), fdRule()} {
				mustFail("DetectRuleFromStore BlockAttr="+r.BlockAttr, func() error {
					_, _, err := DetectRuleFromStore(engine.New(2), st, "tax", r)
					return err
				})
			}
		})
	}
}
