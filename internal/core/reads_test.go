package core_test

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"bigdansing/internal/core"
	"bigdansing/internal/datagen"
	"bigdansing/internal/engine"
	"bigdansing/internal/mapred"
	"bigdansing/internal/model"
	"bigdansing/internal/rules"
)

// readsCase is one rule whose tuples move projected onto its declared
// reads, with a relation it finds violations in.
type readsCase struct {
	name string
	rule *core.Rule
	rel  *model.Relation
}

// handRule is a hand-built rule with a declaration, zipcode -> city on the
// tax schema, whose Detect counts the units it sees with an undeclared cell
// (name, column 0) set.
func handRule(named *atomic.Int64) *core.Rule {
	return &core.Rule{
		ID:        "hand",
		Reads:     []int{1, 2},
		Block:     func(t model.Tuple) model.Value { return t.Cell(1) },
		Symmetric: true,
		Detect: func(it core.Item, out *core.Output) {
			l, r := it.Left(), it.Right()
			for _, u := range []model.Tuple{l, r} {
				if u.Cell(0).Kind != model.KindNull {
					named.Add(1)
				}
			}
			if !l.Cell(1).Equal(r.Cell(1)) || l.Cell(2).Equal(r.Cell(2)) {
				return
			}
			out.Emit("hand",
				model.NewCell(l.ID, 2, l.Cell(2)), model.NewCell(r.ID, 2, r.Cell(2)))
		},
		GenFix: func(dst []model.Fix, v model.Violation) []model.Fix {
			return append(dst, model.NewCellFix(v.Cells[0], model.OpEQ, v.Cells[1]))
		},
	}
}

// readsCases are a hand-built rule with a declaration and the FD, CFD and
// DC front ends' rules, over TaxA and TaxB: blocked grouping (kernels and
// per-pair Detect) and OCJoin's range partitioning.
func readsCases(t *testing.T, named *atomic.Int64) []readsCase {
	t.Helper()
	schema := datagen.TaxSchema()
	taxA, taxB := datagen.TaxA(600, 0.1, 2).Dirty, datagen.TaxB(300, 0.05, 3).Dirty
	fd, err := rules.ParseFD("fd", "zipcode -> city, state")
	if err != nil {
		t.Fatal(err)
	}
	fdRule, err := fd.Compile(schema)
	if err != nil {
		t.Fatal(err)
	}
	cfd, err := rules.ParseCFD("cfd", "zipcode -> city | _ => _")
	if err != nil {
		t.Fatal(err)
	}
	cfdRules, err := cfd.Compile(schema)
	if err != nil {
		t.Fatal(err)
	}
	dc := func(id, spec string) *core.Rule {
		d, err := rules.ParseDC(id, spec)
		if err != nil {
			t.Fatal(err)
		}
		r, err := d.Compile(schema)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	return []readsCase{
		{"hand-built", handRule(named), taxA},
		{"fd", fdRule, taxA},
		{"cfd", cfdRules[0], taxA},
		{"dc blocked", dc("dcb", "t1.state = t2.state & t1.salary > t2.salary & t1.rate < t2.rate"), taxB},
		{"dc OCJoin", dc("dco", "t1.salary > t2.salary & t1.rate < t2.rate"), taxB},
	}
}

// firstDiff describes where two renderings part.
func firstDiff(got, want []string) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("fix set %d of %d (%d wanted)\n got  %s\n want %s", i, len(got), len(want), got[i], want[i])
		}
	}
	return fmt.Sprintf("%d fix sets, %d wanted", len(got), len(want))
}

// fixSetLines renders a result's fix sets, cell values included.
func fixSetLines(res *core.DetectResult) []string {
	out := make([]string, len(res.FixSets))
	for i, fs := range res.FixSets {
		out[i] = fmt.Sprintf("%#v", fs)
	}
	return out
}

// TestDeclaredReadsMatchLocal runs rules with declared reads on the disk
// exchange and under a spilling budget, where their tuples move projected,
// and requires the local backend's fix sets, cell values included: in
// order on the disk exchange, as a multiset under the budget (the external
// grouping merges groups in hash order). The hand-built rule's Detect must
// see every undeclared cell null on both, and whole tuples locally, and the
// disk exchange must move fewer bytes than with the declaration dropped.
func TestDeclaredReadsMatchLocal(t *testing.T) {
	var named atomic.Int64
	for _, c := range readsCases(t, &named) {
		t.Run(c.name, func(t *testing.T) {
			named.Store(0)
			want, err := core.DetectRule(engine.New(4), c.rule, c.rel)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.FixSets) == 0 {
				t.Fatal("the case finds no violations; it proves nothing")
			}
			wantLines := fixSetLines(want)
			sawNames := named.Swap(0)

			disk := func(r *core.Rule) (*core.DetectResult, int64) {
				eng, err := mapred.New(t.TempDir(), 3)
				if err != nil {
					t.Fatal(err)
				}
				got, err := core.DetectRuleMapReduce(eng, r, c.rel, 4, 4)
				if err != nil {
					t.Fatal(err)
				}
				return got, eng.Stats().BytesSpilled()
			}
			got, moved := disk(c.rule)
			if g := fixSetLines(got); !slices.Equal(g, wantLines) {
				t.Fatalf("disk exchange: fix sets differ from the local backend's: %s", firstDiff(g, wantLines))
			}
			if c.name == "hand-built" && (sawNames == 0 || named.Load() != 0) {
				t.Errorf("Detect saw %d named units locally, %d after the disk exchange; want some, then none", sawNames, named.Load())
			}
			whole := *c.rule
			whole.Reads = nil
			if _, all := disk(&whole); moved >= all {
				t.Errorf("the declaration moved %d bytes, whole tuples %d", moved, all)
			}

			named.Store(0)
			ctx, err := engine.NewContext(engine.Config{Parallelism: 4, MemoryBudgetBytes: 4 << 10, SpillDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			got, err = core.DetectRule(ctx, c.rule, c.rel)
			if err != nil {
				t.Fatal(err)
			}
			if ctx.Stats().Snapshot().BytesSpilled == 0 {
				t.Fatal("the budget spilled nothing")
			}
			if g, w := slices.Sorted(slices.Values(fixSetLines(got))), slices.Sorted(slices.Values(wantLines)); !slices.Equal(g, w) {
				t.Fatalf("spill: fix sets differ from the local backend's: %s", firstDiff(g, w))
			}
			if c.name == "hand-built" && named.Load() != 0 {
				t.Errorf("Detect saw %d named units after spilling; want none", named.Load())
			}
		})
	}
}

// TestPhi3DiskBytes pins what φ3 (o_custkey -> c_address) moves through the
// disk exchange on a fixed TPC-H input, 4 000 rows at 10 % errors, seed 1,
// at 4 reducers: each tuple travels as its ID and columns 0..2, column 1
// null, instead of all seven columns.
func TestPhi3DiskBytes(t *testing.T) {
	fd, err := rules.ParseFD("phi3", "o_custkey -> c_address")
	if err != nil {
		t.Fatal(err)
	}
	rule, err := fd.Compile(datagen.TPCHSchema())
	if err != nil {
		t.Fatal(err)
	}
	rel := datagen.TPCH(4000, 0.10, 1).Dirty
	whole := *rule
	whole.Reads = nil
	for _, c := range []struct {
		rule *core.Rule
		want int64
	}{{rule, 164277}, {&whole, 392277}} {
		eng, err := mapred.New(t.TempDir(), 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.DetectRuleMapReduce(eng, c.rule, rel, 4, 4); err != nil {
			t.Fatal(err)
		}
		if got := eng.Stats().BytesSpilled(); got != c.want {
			t.Errorf("reads %v: %d bytes spilled, want %d", c.rule.Reads, got, c.want)
		}
	}
}
