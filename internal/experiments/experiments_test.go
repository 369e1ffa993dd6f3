package experiments

import (
	"bytes"
	"runtime"
	"slices"
	"strings"
	"testing"

	"bigdansing/internal/datagen"
	"bigdansing/internal/engine"
	"bigdansing/internal/join"
	"bigdansing/internal/model"
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
	if len(seen) != 20 {
		t.Errorf("experiments = %d, want 20 (every table and figure plus 5 extensions)", len(seen))
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
	// Compare the two backends directly (Fig10a's full sweep also runs the
	// Shark cross product, far too slow for the test suite). Needs enough
	// rows for disk spilling to dominate the backend gap.
	cfg := tinyCfg()
	cfg = cfg.withDefaults()
	rule := mustRule(phi1())
	rel := mkTaxA(cfg, 40000)
	eventually(t, 3, "in-memory backend should beat disk backend", func() (bool, error) {
		spark, err := detectWith(cfg, sysBigDansing, rule, rel)
		if err != nil {
			return false, err
		}
		hadoop, err := detectWith(cfg, sysBDHadoop, rule, rel)
		if err != nil {
			return false, err
		}
		return spark < hadoop, nil
	})
}

func TestFig11aSpeedsUpWithWorkers(t *testing.T) {
	// Needs enough work per task for parallelism to pay off; the speedup
	// ceiling is the machine's physical core count, so assert a modest
	// 1.2x between 1 worker and the best multi-worker run.
	if runtime.NumCPU() < 2 {
		t.Skip("speedup needs more than one CPU")
	}
	cfg := tinyCfg()
	cfg.Scale = 0.5
	tables, err := Fig11a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bd := tables[0].Get(sysBigDansing)
	best := bd.Value(1)
	for _, p := range bd.Points {
		if p.Value < best {
			best = p.Value
		}
	}
	if best*1.1 >= bd.Value(1) {
		t.Errorf("multi-worker best (%v) should be faster than 1 worker (%v)", best, bd.Value(1))
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
// pairs each operator materializes at the figure's largest input, a count
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
	oc := count(join.OCJoin(d, conds, cfg.Workers))
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

func TestFig12aFullAPIWins(t *testing.T) {
	tables, err := Fig12a(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	full := tbl.Get("full-api").Points[0].Value
	only := tbl.Get("detect-only").Points[0].Value
	if full >= only {
		t.Errorf("full API (%v) should beat Detect-only (%v)", full, only)
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
