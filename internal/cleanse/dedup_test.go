package cleanse

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bigdansing/internal/core"
	"bigdansing/internal/engine"
	"bigdansing/internal/model"
	"bigdansing/internal/repair"
	"bigdansing/internal/rules"
)

// Detection hashes a violation for repeats only where one can arise. These
// tests sit on both sides of that boundary and check, on the full path
// (core.DetectRules) and through Clean (the incremental path), that each
// violation is reported once and that its first occurrence is the one kept.

// recordFirst is a repair algorithm that records the fix sets of the first
// repair it is handed, in order, and proposes nothing: a Clean with it
// detects once and hands every violation (each carries fixes) to it.
type recordFirst struct {
	sets   []model.FixSet
	called bool
}

func (a *recordFirst) Name() string { return "record-first" }

func (a *recordFirst) Repair(c []model.FixSet) ([]repair.Assignment, error) {
	if !a.called {
		a.sets, a.called = slices.Clone(c), true
	}
	return nil, nil
}

// cleanFixSets runs Clean over rel with a recording algorithm and returns
// the fix sets detection handed the first repair round.
func cleanFixSets(t *testing.T, rs []*core.Rule, rel *model.Relation) []model.FixSet {
	t.Helper()
	rec := &recordFirst{}
	if _, err := mustCleaner(t, engine.New(4), rs, WithAlgorithm(rec)).Clean(rel); err != nil {
		t.Fatal(err)
	}
	if !rec.called {
		t.Fatal("Clean handed repair nothing")
	}
	return rec.sets
}

// renderSets is fix sets as comparable lines: each violation with its
// cells' values and its fixes, in order.
func renderSets(sets []model.FixSet) []string {
	out := make([]string, len(sets))
	for i, fs := range sets {
		out[i] = fmt.Sprintf("%v %v", fs.Violation, fs.Fixes)
	}
	return out
}

// dedupRel is a tax relation dense in block collisions and ties: eight
// zipcodes, three cities, two states, four salaries.
func dedupRel(n int, seed int64) *model.Relation {
	rng := rand.New(rand.NewSource(seed))
	rel := model.NewRelation("tax", model.MustParseSchema("name,zipcode:int,city,state,salary:float,rate:float"))
	cities, states := []string{"NY", "LA", "CH"}, []string{"NY", "CA"}
	for i := 0; i < n; i++ {
		rel.Append(model.NewTuple(int64(i+1),
			model.S(fmt.Sprintf("p%d", i)),
			model.I(int64(rng.Intn(8))),
			model.S(cities[rng.Intn(len(cities))]),
			model.S(states[rng.Intn(len(states))]),
			model.F(float64(rng.Intn(4))),
			model.F(float64(rng.Intn(10))),
		))
	}
	return rel
}

// firstOccurrences is the hand-off's contract computed the slow way: every
// rule in order, its blocks (tuples grouped on Block in relation order, or
// each tuple alone for a unary rule), each block's candidates in the
// planner's order, every violation Detect finds with its GenFix — keeping
// the first occurrence of each violation key only. It also reports whether
// anything repeated. The lines are sorted: the paths list blocks in orders
// of their own, and a violation repeats here within one block or across
// rules only.
func firstOccurrences(rs []*core.Rule, rel *model.Relation) (lines []string, repeated bool) {
	seen := map[model.ViolationKey]bool{}
	for _, r := range rs {
		var blocks [][]model.Tuple
		at := map[model.ValueKey]int{}
		for _, t := range rel.Tuples {
			if r.Unary {
				blocks = append(blocks, []model.Tuple{t})
				continue
			}
			k := r.Block(t).MapKey()
			i, ok := at[k]
			if !ok {
				i, at[k] = len(blocks), len(blocks)
				blocks = append(blocks, nil)
			}
			blocks[i] = append(blocks[i], t)
		}
		iterate := core.PairsOrdered
		switch {
		case r.Unary:
			iterate = func(bs [][]model.Tuple) []core.Item { return []core.Item{core.Single(bs[0][0])} }
		case r.Symmetric:
			iterate = core.PairsUnique
		}
		for _, b := range blocks {
			for _, it := range iterate([][]model.Tuple{b}) {
				for _, v := range r.Detect(it) {
					if k := v.MapKey(); seen[k] {
						repeated = true
						continue
					} else {
						seen[k] = true
					}
					lines = append(lines, fmt.Sprintf("%v %v", v, r.GenFix(v)))
				}
			}
		}
	}
	slices.Sort(lines)
	return lines, repeated
}

func TestDedupBoundary(t *testing.T) {
	rel := dedupRel(160, 5)
	schema := rel.Schema
	zip := func(tp model.Tuple) model.Value { return tp.Cell(1) }
	compileFD := func(id, spec string) *core.Rule {
		f, err := rules.ParseFD(id, spec)
		if err != nil {
			t.Fatal(err)
		}
		r, err := f.Compile(schema)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	cases := []struct {
		name  string
		rules func() []*core.Rule
	}{
		{"UDF naming the left tuple over unique pairs", func() []*core.Rule {
			// Every candidate (a, x) with another city names a's city cell:
			// the violation repeats once per such x. Each occurrence captures
			// x's city, so keeping a later one shows.
			return []*core.Rule{{
				ID: "left", Block: zip, Symmetric: true,
				Detect: func(it core.Item) []model.Violation {
					l, r := it.Left(), it.Right()
					if l.Cell(2).Equal(r.Cell(2)) {
						return nil
					}
					return []model.Violation{model.NewViolation("left", model.NewCell(l.ID, 2, r.Cell(2)))}
				},
				GenFix: func(v model.Violation) []model.Fix {
					return []model.Fix{model.NewConstFix(v.Cells[0], model.OpEQ, v.Cells[0].Value)}
				},
			}}
		}},
		{"non-symmetric same-key DC", func() []*core.Rule {
			// A salary tie violates in both orientations, naming the same
			// cells in another order.
			d, err := rules.ParseDC("tie", "t1.zipcode = t2.zipcode & t1.city != t2.city & t1.salary <= t2.salary")
			if err != nil {
				t.Fatal(err)
			}
			r, err := d.Compile(schema)
			if err != nil {
				t.Fatal(err)
			}
			if r.DetectBlock == nil || r.Symmetric {
				t.Fatal("the DC should compile to an ordered block kernel")
			}
			return []*core.Rule{r}
		}},
		{"two kernel rules sharing an ID", func() []*core.Rule {
			// A pair agreeing on zipcode and state with other cities violates
			// both; the second rule's fixes name it.
			byState := compileFD("phi", "state -> city")
			byState.GenFix = func(v model.Violation) []model.Fix {
				return []model.Fix{model.NewConstFix(v.Cells[0], model.OpEQ, model.S("second"))}
			}
			return []*core.Rule{compileFD("phi", "zipcode -> city"), byState}
		}},
		{"CFD with overlapping tableau rows", func() []*core.Rule {
			c, err := rules.ParseCFD("cfd", "zipcode -> city | 1 => _ ; _ => _ ; 2 => NY ; _ => NY")
			if err != nil {
				t.Fatal(err)
			}
			rs, err := c.Compile(schema)
			if err != nil {
				t.Fatal(err)
			}
			return rs
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, repeated := firstOccurrences(tc.rules(), rel)
			if !repeated {
				t.Fatal("the rules repeat no violation on this input")
			}
			full, err := core.DetectRules(engine.New(4), tc.rules(), rel)
			if err != nil {
				t.Fatal(err)
			}
			for path, sets := range map[string][]model.FixSet{
				"DetectRules": full.FixSets,
				"Clean":       cleanFixSets(t, tc.rules(), rel),
			} {
				got := renderSets(sets)
				slices.Sort(got)
				if !slices.Equal(got, want) {
					t.Errorf("%s: %d fix sets, want the %d first occurrences:\n got  %q\n want %q", path, len(got), len(want), got, want)
				}
			}
		})
	}
}

// TestFDRepeatedRHS: an FD naming an RHS attribute twice compiles to the
// FD naming it once, so both report the same violations with the same
// fixes, in the same order, on the full path and through Clean.
func TestFDRepeatedRHS(t *testing.T) {
	rel := dedupRel(160, 6)
	compile := func(spec string) []*core.Rule {
		f, err := rules.ParseFD("phi1", spec)
		if err != nil {
			t.Fatal(err)
		}
		r, err := f.Compile(rel.Schema)
		if err != nil {
			t.Fatal(err)
		}
		return []*core.Rule{r}
	}
	paths := []struct {
		name string
		run  func([]*core.Rule) []model.FixSet
	}{
		{"DetectRules", func(rs []*core.Rule) []model.FixSet {
			res, err := core.DetectRules(engine.New(4), rs, rel)
			if err != nil {
				t.Fatal(err)
			}
			return res.FixSets
		}},
		{"Clean", func(rs []*core.Rule) []model.FixSet { return cleanFixSets(t, rs, rel) }},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			once := renderSets(p.run(compile("zipcode -> city")))
			if len(once) == 0 {
				t.Fatal("no violations")
			}
			for _, spec := range []string{"zipcode -> city, city", "zipcode -> city, city, city"} {
				if got := renderSets(p.run(compile(spec))); !slices.Equal(got, once) {
					t.Errorf("%s: %d fix sets, want the %d of zipcode -> city:\n got  %q\n want %q", spec, len(got), len(once), got, once)
				}
			}
		})
	}
}
