package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"bigdansing/internal/core"
	"bigdansing/internal/engine"
	"bigdansing/internal/mapred"
	"bigdansing/internal/model"
	"bigdansing/internal/rules"
	"bigdansing/internal/trace"
)

// The executor oracle: every rule shape runs through every grouping,
// exchange and memory budget of the one pipeline body, and each run must
// reproduce the reference — the rule's per-pair Detect over the planner's
// enumeration on the local engine, with its block kernel stripped —
// violation for violation and fix for fix, and count the reference's
// candidate pairs — except on the FD shapes, whose block kernel counts only
// the pairs it compared (see fdKernelPairs).

const oracleSchema = "name,zipcode:int,city,state,salary:float,rate:float"

// oracleData is a tax-shaped relation dense in block collisions and in the
// value corners: NaN, -0, NULL and cross-kind numerics, empty-string and
// NULL block keys, and singleton blocks.
func oracleData(n int, seed int64) *model.Relation {
	rng := rand.New(rand.NewSource(seed))
	rel := model.NewRelation("tax", model.MustParseSchema(oracleSchema))
	cities := []string{"NY", "LA", "CH", "SF", ""}
	states := []string{"NY", "CA", "IL"}
	corner := func(i int) model.Value {
		switch rng.Intn(6) {
		case 0:
			return model.F(math.NaN())
		case 1:
			return model.F(math.Copysign(0, -1))
		case 2:
			return model.I(int64(rng.Intn(5))) // cross-kind against the floats
		case 3:
			return model.Null()
		default:
			return model.F(float64(rng.Intn(i)))
		}
	}
	for i := 0; i < n; i++ {
		zip := model.I(int64(rng.Intn(15)))
		switch rng.Intn(10) {
		case 0:
			zip = model.Null()
		case 1:
			zip = model.I(int64(1000 + i)) // a singleton block
		}
		rel.Append(model.NewTuple(int64(i+1),
			model.S(fmt.Sprintf("p%d", i)),
			zip,
			model.S(cities[rng.Intn(len(cities))]),
			model.S(states[rng.Intn(len(states))]),
			corner(5000),
			corner(30),
		))
	}
	return rel
}

// withScope narrows a compiled rule to rows with a non-empty city.
func withScope(r *core.Rule) *core.Rule {
	r.Scope = func(t model.Tuple) []model.Tuple {
		if t.Cell(2).Equal(model.S("")) {
			return nil
		}
		return []model.Tuple{t}
	}
	return r
}

// oracleShapes are the rule shapes of the table, each with the physical
// plan it must take. A shape compiles a fresh rule per call.
var oracleShapes = []struct {
	name string
	impl core.IterImpl
	rule func(t *testing.T, s *model.Schema) *core.Rule
}{
	{"fd", core.IterUniquePairs, fd("zipcode -> city")},
	{"fd-composite", core.IterUniquePairs, fd("zipcode, state -> city, rate")},
	{"fd-scoped", core.IterUniquePairs, scoped(fd("zipcode -> city"))},
	{"dc-blocked", core.IterUniquePairs, dc("t1.city = t2.city & t1.state != t2.state")},
	{"dc-blocked-ordered", core.IterOrderedPairs, dc("t1.zipcode = t2.zipcode & t1.salary > t2.salary & t1.rate < 20")},
	{"dc-unary-scoped", core.IterSingles, scoped(dc("t1.salary > 1000 & t1.rate < 10"))},
	{"dc-ocjoin", core.IterOCJoin, dc("t1.salary > t2.salary & t1.rate < t2.rate")},
	{"dc-coblock", core.IterCoBlockPairs, dc("t1.city = t2.state & t1.salary < t2.salary")},
	{"dc-unblocked", core.IterOrderedPairs, dc("t1.city != t2.city & t1.salary > t2.salary & t1.rate > 25")},
	{"custom-iterate", core.IterCustom, func(t *testing.T, s *model.Schema) *core.Rule {
		r := fd("zipcode -> city")(t, s)
		r.Iterate = core.PairsOrdered
		return r
	}},
}

func fd(spec string) func(*testing.T, *model.Schema) *core.Rule {
	return func(t *testing.T, s *model.Schema) *core.Rule {
		f, err := rules.ParseFD("r", spec)
		if err != nil {
			t.Fatal(err)
		}
		r, err := f.Compile(s)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
}

func dc(spec string) func(*testing.T, *model.Schema) *core.Rule {
	return func(t *testing.T, s *model.Schema) *core.Rule {
		d, err := rules.ParseDC("r", spec)
		if err != nil {
			t.Fatal(err)
		}
		r, err := d.Compile(s)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
}

func scoped(compile func(*testing.T, *model.Schema) *core.Rule) func(*testing.T, *model.Schema) *core.Rule {
	return func(t *testing.T, s *model.Schema) *core.Rule { return withScope(compile(t, s)) }
}

// oracleRun is one configuration of the table.
type oracleRun struct {
	disk   bool // the disk exchange
	budget bool // a memory budget of a few KiB: every wide operator spills
}

func (c oracleRun) String() string {
	return fmt.Sprintf("disk=%v/budget=%v", c.disk, c.budget)
}

// detect plans r over rel and executes it on a context configured for the
// run. It returns the result, the candidate pairs the pipeline reported,
// and the bytes the engine spilled.
func (c oracleRun) detect(t *testing.T, r *core.Rule, rel *model.Relation) (*core.DetectResult, int64, int64) {
	t.Helper()
	tracer := trace.New()
	cfg := engine.Config{Parallelism: 4, Observer: tracer}
	if c.budget {
		cfg.MemoryBudgetBytes = 4 << 10
		cfg.SpillDir = t.TempDir()
	}
	if c.disk {
		eng, err := mapred.New(t.TempDir(), 2)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Exchange = eng
	}
	ctx, err := engine.NewContext(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := core.PlanRule(r, rel)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := core.NewPlanner().Plan(lp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunPlanSpark(ctx, pp)
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	tracer.Finish()
	var pairs int64
	for _, sp := range tracer.Spans() {
		if sp.Kind() == engine.SpanPipeline && sp.Name() == r.ID {
			pairs, _ = sp.AttrValue(engine.AttrPairs)
		}
	}
	return res, pairs, ctx.Stats().Snapshot().BytesSpilled
}

// rendered is a result as comparable lines: each violation with its cells'
// values and its fixes, in result order. It checks the hand-off's shape on
// the way: both slices allocated at their exact size, and violation i the
// violation of fix set i.
func rendered(t *testing.T, res *core.DetectResult) []string {
	t.Helper()
	if len(res.Violations) != len(res.FixSets) {
		t.Fatalf("%d violations but %d fix sets", len(res.Violations), len(res.FixSets))
	}
	if cap(res.Violations) != len(res.Violations) || cap(res.FixSets) != len(res.FixSets) {
		t.Fatalf("result not exact-size: violations len %d cap %d, fix sets len %d cap %d",
			len(res.Violations), cap(res.Violations), len(res.FixSets), cap(res.FixSets))
	}
	out := make([]string, len(res.FixSets))
	for i, fs := range res.FixSets {
		if fmt.Sprint(res.Violations[i]) != fmt.Sprint(fs.Violation) {
			t.Fatalf("violation %d is not its fix set's", i)
		}
		out[i] = fmt.Sprintf("%v %v", fs.Violation, fs.Fixes)
	}
	return out
}

// fdKernelPairs names the shapes run by the FD block kernel, which compares
// only the pairs that cross RHS sub-groups. true: every block sub-groups
// (city holds strings only), so a run counts exactly the reference's
// violating pairs. false: blocks whose rate cells hold a NaN or mix kinds
// fall back to the per-pair loop, so a run counts between the violating
// pairs and the reference's pairs, the same in every run.
var fdKernelPairs = map[string]bool{"fd": true, "fd-scoped": true, "fd-composite": false}

// violatingPairs counts the distinct ordered tuple pairs of two-tuple
// violations.
func violatingPairs(res *core.DetectResult) int64 {
	seen := map[[2]int64]bool{}
	for _, v := range res.Violations {
		seen[[2]int64{v.Cells[0].TupleID, v.Cells[1].TupleID}] = true
	}
	return int64(len(seen))
}

func TestExecutorOracle(t *testing.T) {
	schema := model.MustParseSchema(oracleSchema)
	for _, sh := range oracleShapes {
		t.Run(sh.name, func(t *testing.T) {
			t.Parallel()
			lp, err := core.PlanRule(sh.rule(t, schema), oracleData(0, 0))
			if err != nil {
				t.Fatal(err)
			}
			pp, err := core.NewPlanner().Plan(lp)
			if err != nil {
				t.Fatal(err)
			}
			if impl := pp.Pipelines[0].Impl; impl != sh.impl {
				t.Fatalf("planned %v, want %v", impl, sh.impl)
			}
			exact, kernel := fdKernelPairs[sh.name]
			for _, n := range []int{0, 1, 80} {
				rel := oracleData(n, int64(n)+int64(len(sh.name)))
				var kernelPairs int64 = -1
				// The reference: per-pair Detect, kernels stripped, tuples,
				// local engine, no budget.
				ref := sh.rule(t, schema)
				ref.DetectBlock = nil
				want, pairs, _ := oracleRun{}.detect(t, ref, rel)
				if n == 80 && len(want.Violations) == 0 {
					t.Fatalf("n=%d: the reference found no violations", n)
				}
				wantLines := rendered(t, want)
				violating := violatingPairs(want)
				for _, disk := range []bool{false, true} {
					for _, budget := range []bool{false, true} {
						run := oracleRun{disk: disk, budget: budget}
						got, gotPairs, spilled := run.detect(t, sh.rule(t, schema), rel)
						if budget && !disk && n > 1 && sh.impl != core.IterSingles && spilled == 0 {
							t.Fatalf("n=%d %v: the budget spilled nothing", n, run)
						}
						gotLines, want := rendered(t, got), wantLines
						if budget {
							// The external grouping merges groups in hash
							// order: compare as multisets.
							gotLines, want = slices.Sorted(slices.Values(gotLines)), slices.Sorted(slices.Values(want))
						}
						if !slices.Equal(gotLines, want) {
							t.Fatalf("n=%d %v: %d violations differ from the reference's %d\n got  %q\n want %q",
								n, run, len(gotLines), len(want), gotLines, want)
						}
						if kernel && kernelPairs < 0 {
							kernelPairs = gotPairs
						}
						switch {
						case !kernel && gotPairs != pairs:
							t.Fatalf("n=%d %v: pairs %d, reference %d", n, run, gotPairs, pairs)
						case kernel && exact && gotPairs != violating:
							t.Fatalf("n=%d %v: kernel pairs %d, violating pairs %d", n, run, gotPairs, violating)
						case kernel && (gotPairs != kernelPairs || gotPairs < violating || gotPairs > pairs):
							t.Fatalf("n=%d %v: kernel pairs %d, first row %d, violating pairs %d, reference %d",
								n, run, gotPairs, kernelPairs, violating, pairs)
						}
					}
				}
			}
		})
	}
}
