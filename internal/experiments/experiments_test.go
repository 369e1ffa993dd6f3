package experiments

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"bigdansing/internal/baseline"
	"bigdansing/internal/core"
	"bigdansing/internal/datagen"
	"bigdansing/internal/engine"
	"bigdansing/internal/join"
	"bigdansing/internal/model"
	"bigdansing/internal/trace"
)

// tinyCfg runs experiments at a small scale so the whole suite stays fast
// while shapes remain observable.
func tinyCfg() Config {
	return Config{Workers: 4, Seed: 7, Scale: 0.03}
}

// mkTaxA builds a dirty TaxA instance at an absolute row count.
func mkTaxA(cfg Config, rows int) *model.Relation {
	return datagen.TaxA(rows, 0.1, cfg.Seed).Dirty
}

// mkTPCH builds a dirty TPCH instance at an absolute row count.
func mkTPCH(cfg Config, rows int) *model.Relation {
	return datagen.TPCH(rows, 0.1, cfg.Seed).Dirty
}

func TestRegistryIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Title == "" {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	if len(seen) != 19 {
		t.Errorf("experiments = %d, want 19 (every table and figure plus 4 extensions)", len(seen))
	}
}

func TestRunUnknownID(t *testing.T) {
	if err := Run("fig99", tinyCfg()); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestTablePrinting(t *testing.T) {
	tbl := &Table{ID: "x", Title: "demo", XLabel: "rows",
		Series: []Series{
			{Name: "a", Points: []Point{{X: 10, Value: 1.5}, {X: 20, Value: 3}}},
			{Name: "b", Points: []Point{{X: 10, Value: Excluded}}},
		},
		Notes: []string{"a note"}}
	var buf bytes.Buffer
	tbl.Print(&buf)
	out := buf.String()
	for _, want := range []string{"# x: demo", "rows", "a", "b", "1.5", "-", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("printed table missing %q:\n%s", want, out)
		}
	}
}

func TestFig9aShape(t *testing.T) {
	tables, err := Fig9a(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	bd, nd := tbl.Get(sysBigDansing), tbl.Get(sysNadeef)
	if bd == nil || nd == nil {
		t.Fatal("series missing")
	}
	// At the largest size BigDansing must beat NADEEF.
	lastX := bd.Points[len(bd.Points)-1].X
	if bd.Value(lastX) >= nd.Value(lastX) {
		t.Errorf("bigdansing (%v) should beat nadeef (%v) at %v rows",
			bd.Value(lastX), nd.Value(lastX), lastX)
	}
}

func TestFig9bOCJoinWins(t *testing.T) {
	// The crossover favors the baselines below ~1K rows (the paper also
	// shows PostgreSQL winning at the smallest sizes); test past it.
	cfg := tinyCfg()
	cfg.Scale = 0.25
	tables, err := Fig9b(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	bd := tbl.Get(sysBigDansing)
	lastX := bd.Points[len(bd.Points)-1].X
	for _, sys := range []string{sysPostgres, sysSparkSQL, sysShark, sysNadeef} {
		if v := tbl.Get(sys).Value(lastX); v != Excluded && bd.Value(lastX) >= v {
			t.Errorf("bigdansing (%v) should beat %s (%v) on the inequality DC", bd.Value(lastX), sys, v)
		}
	}
}

func TestFig10aHadoopSlowerThanSpark(t *testing.T) {
	cfg := tinyCfg().withDefaults()
	checkDiskBackendGap(t, cfg, mustRule(phi1()), mkTaxA(cfg, 40000))
}

// tracedDetect runs detect on a context of w workers with a tracer
// installed and returns the finished trace.
func tracedDetect(t *testing.T, w int, detect func(*engine.Context) (*core.DetectResult, error)) *trace.Tracer {
	t.Helper()
	tr := trace.New()
	ctx, err := engine.NewContext(engine.Config{Parallelism: w, Observer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := detect(ctx); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	return tr
}

// TestFig11aSpeedsUpWithWorkers checks the mechanism of Figure 11(a)'s
// scale-out: at each of the figure's worker counts w, every stage that
// reads the whole input splits it into w tasks, the largest holding about
// 1/w of the records.
func TestFig11aSpeedsUpWithWorkers(t *testing.T) {
	cfg := tinyCfg().withDefaults()
	rule := mustRule(phi3())
	rel := mkTPCH(cfg, cfg.rows(200000))
	n := int64(rel.Len())
	for _, w := range []int{1, 2, 4, 8, 16} {
		tr := tracedDetect(t, w, func(ctx *engine.Context) (*core.DetectResult, error) { return core.DetectRule(ctx, rule, rel) })
		type stage struct{ tasks, sum, largest int64 }
		stages := map[int]*stage{}
		for _, sp := range tr.Spans() {
			if sp.Kind() != engine.SpanTask {
				continue
			}
			in, _ := sp.AttrValue(engine.AttrRecordsIn)
			st := stages[sp.ParentID()]
			if st == nil {
				st = &stage{}
				stages[sp.ParentID()] = st
			}
			st.tasks++
			st.sum += in
			st.largest = max(st.largest, in)
		}
		whole := 0
		for _, st := range stages {
			if st.sum != n {
				continue
			}
			whole++
			if st.tasks != int64(w) || float64(st.largest) > 1.5*float64(n)/float64(w) {
				t.Errorf("%d workers: a stage reading all %d records ran %d tasks, the largest reading %d", w, n, st.tasks, st.largest)
			}
		}
		if whole == 0 {
			t.Errorf("%d workers: no stage read all %d records", w, n)
		}
	}
}

func TestFig11bBigDansingBeatsShark(t *testing.T) {
	cfg := tinyCfg()
	cfg.Scale = 0.25 // below ~100 rows the blocked UDF's overhead dominates
	tables, err := Fig11b(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	for _, p := range tbl.Get(sysBigDansing).Points {
		shark := tbl.Get(sysShark).Value(p.X)
		if p.Value >= shark {
			t.Errorf("dedup dataset %v: bigdansing %v vs shark %v", p.X, p.Value, shark)
		}
	}
}

// TestFig11cOCJoinBeatsCrossProducts asserts Figure 11(c)'s ranking on the
// pairs each operator yields at the figure's largest input, a count
// that repeats exactly; the figure's timings at test scale are a few
// milliseconds apart and swap places under load.
func TestFig11cOCJoinBeatsCrossProducts(t *testing.T) {
	cfg := tinyCfg().withDefaults()
	tables, err := Fig11c(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tables[0].Series {
		if len(s.Points) != 3 {
			t.Errorf("series %s points = %d, want 3", s.Name, len(s.Points))
		}
	}

	n := cfg.rows(2000)
	rel := datagen.TaxB(n, 0.1, cfg.Seed).Dirty
	d := engine.Parallelize(engine.New(cfg.Workers), rel.Tuples, 0)
	conds := []join.Cond{{LeftCol: 4, Op: model.OpGT, RightCol: 4}, {LeftCol: 5, Op: model.OpLT, RightCol: 5}}
	count := func(ds *engine.Dataset[engine.PairOf[model.Tuple]], err error) int64 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		c, err := ds.Count()
		if err != nil {
			t.Fatal(err)
		}
		return int64(c)
	}
	ds, err := join.OCJoin(d, conds, cfg.Workers)
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := ds.Collect()
	if err != nil {
		t.Fatal(err)
	}
	var oc int64
	for _, tk := range tasks {
		tk.Each(func(_, _ model.Tuple) { oc++ })
	}
	ucross := count(join.UCrossProduct(d), nil)
	cross := count(join.CrossProduct(d), nil)
	var want int64 // the violating pairs, by cross product and post-selection
	for _, l := range rel.Tuples {
		for _, r := range rel.Tuples {
			if l.ID != r.ID && !slices.ContainsFunc(conds, func(c join.Cond) bool { return !c.Eval(l, r) }) {
				want++
			}
		}
	}
	if oc != want {
		t.Fatalf("ocjoin emitted %d pairs, want the %d violating ones", oc, want)
	}
	if nn := int64(n); ucross != nn*(nn-1)/2 || cross != nn*(nn-1) {
		t.Fatalf("cross products of %d rows: %d unique, %d ordered pairs", n, ucross, cross)
	}
	if oc >= ucross {
		t.Errorf("ocjoin materialized %d pairs, ucrossproduct %d: ocjoin should touch fewer", oc, ucross)
	}
}

// TestFig12aFullAPIWins checks the mechanism of Figure 12(a): Scope, Block
// and Iterate prune the pairs the dedup UDF compares, so the full API
// compares fewer pairs than the same UDF run Detect-only.
func TestFig12aFullAPIWins(t *testing.T) {
	rel, rule, err := fig12aInput(tinyCfg().withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	pairs := func(detect func(*engine.Context) (*core.DetectResult, error)) int64 {
		total := int64(0)
		for _, sp := range tracedDetect(t, 4, detect).Spans() {
			if p, ok := sp.AttrValue(engine.AttrPairs); ok && sp.Kind() == engine.SpanPipeline {
				total += p
			}
		}
		return total
	}
	full := pairs(func(ctx *engine.Context) (*core.DetectResult, error) { return core.DetectRule(ctx, rule, rel) })
	only := pairs(func(ctx *engine.Context) (*core.DetectResult, error) { return baseline.DetectOnly(ctx, rule, rel) })
	t.Logf("pairs compared: full API %d, Detect-only %d", full, only)
	if full <= 0 || full >= only {
		t.Errorf("full API compared %d pairs, Detect-only %d: the full API should compare fewer", full, only)
	}
}

func TestFig8aAndFig8bRun(t *testing.T) {
	cfg := tinyCfg()
	tables, err := Fig8a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("fig8a tables = %d, want one per rule", len(tables))
	}
	for _, tbl := range tables {
		bd := tbl.Get(sysBigDansing)
		lastX := bd.Points[len(bd.Points)-1].X
		if bd.Value(lastX) >= tbl.Get(sysNadeef).Value(lastX) {
			t.Errorf("%s: bigdansing (%v) should beat nadeef (%v)", tbl.Title, bd.Value(lastX), tbl.Get(sysNadeef).Value(lastX))
		}
	}
	t8b, err := Fig8b(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range t8b[0].Series {
		if len(s.Points) != 4 {
			t.Errorf("fig8b series %s points = %d", s.Name, len(s.Points))
		}
	}
}

func TestFig12bRuns(t *testing.T) {
	tables, err := Fig12b(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Series) != 2 {
		t.Fatal("two repair variants expected")
	}
}

func TestTable4QualityParity(t *testing.T) {
	tables, err := Table4(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	precision := tables[0]
	recall := tables[1]
	iters := tables[2]
	for _, p := range precision.Get("bigdansing").Points {
		cent := precision.Get("nadeef(centralized)").Value(p.X)
		if diff := p.Value - cent; diff > 0.05 || diff < -0.05 {
			t.Errorf("combo %v: parallel precision %v vs centralized %v", p.X, p.Value, cent)
		}
	}
	for _, p := range recall.Get("bigdansing").Points {
		if p.Value <= 0.5 {
			t.Errorf("combo %v: recall %v too low", p.X, p.Value)
		}
	}
	for _, p := range iters.Get("bigdansing").Points {
		cent := iters.Get("nadeef(centralized)").Value(p.X)
		if p.Value != cent {
			t.Errorf("combo %v: iterations %v vs centralized %v (paper: equal)", p.X, p.Value, cent)
		}
	}
}

func TestTables23(t *testing.T) {
	tables, err := Tables23(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatal("want table 2 and table 3")
	}
	if got := len(tables[1].Series[0].Points); got != 8 {
		t.Errorf("table 3 rules = %d, want 8", got)
	}
}

func TestRunPrintsOutput(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyCfg()
	cfg.Out = &buf
	if err := Run("tables23", cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "integrity constraints") {
		t.Error("output should contain table 3")
	}
}
