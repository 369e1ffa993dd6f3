package netexec

import (
	"fmt"
	"slices"
	"testing"

	"bigdansing/internal/core"
	"bigdansing/internal/datagen"
	"bigdansing/internal/engine"
	"bigdansing/internal/model"
	"bigdansing/internal/rules"
)

// declaredRules are a hand-built rule with a declaration (zipcode -> city
// on the tax schema, its Detect failing the run on any unit whose
// undeclared name cell is set) and the FD, CFD and DC front ends' rules,
// each with a relation it finds violations in.
func declaredRules(t *testing.T, local bool) map[string]struct {
	rule *core.Rule
	rel  *model.Relation
} {
	t.Helper()
	schema := datagen.TaxSchema()
	taxA, taxB := datagen.TaxA(400, 0.1, 5).Dirty, datagen.TaxB(200, 0.05, 6).Dirty
	compile := func(kind, spec string) *core.Rule {
		var (
			r   *core.Rule
			err error
		)
		switch kind {
		case "fd":
			var fd *rules.FD
			if fd, err = rules.ParseFD(kind, spec); err == nil {
				r, err = fd.Compile(schema)
			}
		case "cfd":
			var cfd *rules.CFD
			var rs []*core.Rule
			if cfd, err = rules.ParseCFD(kind, spec); err == nil {
				if rs, err = cfd.Compile(schema); err == nil {
					r = rs[0]
				}
			}
		default:
			var dc *rules.DC
			if dc, err = rules.ParseDC(kind, spec); err == nil {
				r, err = dc.Compile(schema)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	hand := &core.Rule{
		ID:        "hand",
		Reads:     []int{1, 2},
		Block:     func(u model.Tuple) model.Value { return u.Cell(1) },
		Symmetric: true,
		Detect: func(it core.Item) []model.Violation {
			l, r := it.Left(), it.Right()
			if !local && (l.Cell(0).Kind != model.KindNull || r.Cell(0).Kind != model.KindNull) {
				panic("an undeclared cell crossed the exchange")
			}
			if !l.Cell(1).Equal(r.Cell(1)) || l.Cell(2).Equal(r.Cell(2)) {
				return nil
			}
			return []model.Violation{model.NewViolation("hand",
				model.NewCell(l.ID, 2, l.Cell(2)), model.NewCell(r.ID, 2, r.Cell(2)))}
		},
	}
	type rr = struct {
		rule *core.Rule
		rel  *model.Relation
	}
	return map[string]rr{
		"hand-built": {hand, taxA},
		"fd":         {compile("fd", "zipcode -> city, state"), taxA},
		"cfd":        {compile("cfd", "zipcode -> city | _ => _"), taxA},
		"dc blocked": {compile("dc", "t1.state = t2.state & t1.salary > t2.salary & t1.rate < t2.rate"), taxB},
		"dc OCJoin":  {compile("dc", "t1.salary > t2.salary & t1.rate < t2.rate"), taxB},
	}
}

// TestDeclaredReadsMatchLocal: rules with declared reads move projected
// tuples through the networked and disk exchanges, and must find the local
// backend's fix sets in its order, cell values included.
func TestDeclaredReadsMatchLocal(t *testing.T) {
	want := map[string][]string{}
	for name, c := range declaredRules(t, true) {
		res, err := core.DetectRule(engine.New(4), c.rule, c.rel)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.FixSets) == 0 {
			t.Fatalf("%s finds no violations; it proves nothing", name)
		}
		want[name] = renderFixSets(res)
	}
	for _, b := range backends(2) {
		t.Run(b.name, func(t *testing.T) {
			ctx := b.ctx(t)
			for name, c := range declaredRules(t, false) {
				res, err := core.DetectRule(ctx, c.rule, c.rel)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got := renderFixSets(res); !slices.Equal(got, want[name]) {
					t.Errorf("%s: %d fix sets differ from the local backend's %d", name, len(got), len(want[name]))
				}
			}
		})
	}
}

func renderFixSets(res *core.DetectResult) []string {
	out := make([]string, len(res.FixSets))
	for i, fs := range res.FixSets {
		out[i] = fmt.Sprintf("%#v", fs)
	}
	return out
}

// TestPhi3NetBytes pins what φ3 (o_custkey -> c_address) sends through the
// networked exchange on a fixed TPC-H input, 4 000 rows at 10 % errors,
// seed 1, at parallelism 4 over two workers, with the declaration and with
// whole tuples. Straggler backups are off, so every byte is one first
// dispatch.
func TestPhi3NetBytes(t *testing.T) {
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
	coord, err := New(Config{Workers: 2, StragglerMinDone: 1 << 20}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ctx, err := engine.NewContext(engine.Config{Parallelism: 4, Exchange: coord})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		rule *core.Rule
		want int64
	}{{rule, 164677}, {&whole, 392677}} {
		before := coord.Counters()
		if _, err := core.DetectRule(ctx, c.rule, rel); err != nil {
			t.Fatal(err)
		}
		after := coord.Counters()
		if after.Retries != before.Retries {
			t.Fatalf("reads %v: %d retries", c.rule.Reads, after.Retries-before.Retries)
		}
		if got := after.BytesSent - before.BytesSent; got != c.want {
			t.Errorf("reads %v: %d bytes sent, want %d", c.rule.Reads, got, c.want)
		}
	}
}
