package repair

import (
	"fmt"
	"testing"

	"bigdansing/internal/engine"
	"bigdansing/internal/mapred"
	"bigdansing/internal/model"
)

// fdFixSet builds the fix set of an FD violation: two city cells that must
// become equal.
func fdFixSet(rule string, t1, t2 int64, v1, v2 string) model.FixSet {
	c1 := model.NewCell(t1, 2, model.S(v1))
	c2 := model.NewCell(t2, 2, model.S(v2))
	return model.FixSet{
		Violation: model.NewViolation(rule, c1, c2),
		Fixes:     []model.Fix{model.NewCellFix(c1, model.OpEQ, c2)},
	}
}

func TestEquivalenceClassMajorityWins(t *testing.T) {
	// Cells: t1=LA, t2=LA, t3=SF all linked -> target LA (majority).
	fs := []model.FixSet{
		fdFixSet("fd", 1, 3, "LA", "SF"),
		fdFixSet("fd", 2, 3, "LA", "SF"),
	}
	algo := &EquivalenceClass{}
	as, err := algo.Repair(fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 1 {
		t.Fatalf("assignments = %v, want only t3 -> LA", as)
	}
	if as[0].TupleID != 3 || as[0].Value != model.S("LA") {
		t.Errorf("assignment = %v", as[0])
	}
}

func TestEquivalenceClassDeterministicTieBreak(t *testing.T) {
	fs := []model.FixSet{fdFixSet("fd", 1, 2, "SF", "LA")}
	algo := &EquivalenceClass{}
	as1, _ := algo.Repair(fs)
	as2, _ := algo.Repair(fs)
	if len(as1) != 1 || len(as2) != 1 {
		t.Fatalf("tie should produce one assignment: %v / %v", as1, as2)
	}
	if as1[0] != as2[0] {
		t.Error("tie break should be deterministic")
	}
	// Smaller rendered value wins ties.
	if as1[0].Value != model.S("LA") {
		t.Errorf("tie winner = %v, want LA", as1[0].Value)
	}
}

func TestEquivalenceClassConstantWins(t *testing.T) {
	// A CFD-style constant fix outweighs the frequency vote.
	c1 := model.NewCell(1, 2, model.S("SF"))
	c2 := model.NewCell(2, 2, model.S("SF"))
	fs := []model.FixSet{
		{
			Violation: model.NewViolation("cfd", c1, c2),
			Fixes: []model.Fix{
				model.NewCellFix(c1, model.OpEQ, c2),
				model.NewConstFix(c1, model.OpEQ, model.S("LA")),
			},
		},
	}
	algo := &EquivalenceClass{}
	as, err := algo.Repair(fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 2 {
		t.Fatalf("assignments = %v, want both cells -> LA", as)
	}
	for _, a := range as {
		if a.Value != model.S("LA") {
			t.Errorf("constant should win: %v", a)
		}
	}
}

func TestEquivalenceClassSingletonUntouched(t *testing.T) {
	// A violation with no equality fixes leaves cells alone.
	c := model.NewCell(1, 0, model.S("x"))
	fs := []model.FixSet{{Violation: model.NewViolation("r", c)}}
	algo := &EquivalenceClass{}
	as, err := algo.Repair(fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 0 {
		t.Errorf("assignments = %v, want none", as)
	}
}

func TestHypergraphRepairSatisfiesDCFixes(t *testing.T) {
	// φD-style violation: t1.rate=15 > t2.rate=10 while t1.salary < t2.salary.
	// Fixes: rate1 <= rate2 or salary1 >= salary2.
	r1 := model.NewCell(1, 5, model.F(15))
	r2 := model.NewCell(2, 5, model.F(10))
	s1 := model.NewCell(1, 4, model.F(24000))
	s2 := model.NewCell(2, 4, model.F(25000))
	fs := []model.FixSet{{
		Violation: model.NewViolation("dc", r1, r2, s1, s2),
		Fixes: []model.Fix{
			model.NewCellFix(r1, model.OpLE, r2),
			model.NewCellFix(s1, model.OpGE, s2),
		},
	}}
	algo := &Hypergraph{}
	as, err := algo.Repair(fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) == 0 {
		t.Fatal("hypergraph repair should act")
	}
	// Apply mentally: at least one fix must hold afterwards.
	vals := map[string]model.Value{
		r1.Key(): r1.Value, r2.Key(): r2.Value,
		s1.Key(): s1.Value, s2.Key(): s2.Value,
	}
	for _, a := range as {
		vals[fmt.Sprintf("%d#%d", a.TupleID, a.Col)] = a.Value
	}
	rateOK := model.Compare(vals[r1.Key()], vals[r2.Key()]) <= 0
	salOK := model.Compare(vals[s1.Key()], vals[s2.Key()]) >= 0
	if !rateOK && !salOK {
		t.Errorf("no fix satisfied after repair: %v", as)
	}
}

func TestHypergraphRepairGreedyCoverSharedCell(t *testing.T) {
	// Example 2's shape: two FDs overlap on the same B cell; repairing B
	// once should resolve both violations with a single assignment.
	b1 := model.NewCell(1, 1, model.S("b1"))
	b2 := model.NewCell(2, 1, model.S("b2"))
	fs := []model.FixSet{
		{
			Violation: model.NewViolation("fd1", b1, b2),
			Fixes:     []model.Fix{model.NewCellFix(b1, model.OpEQ, b2)},
		},
		{
			Violation: model.NewViolation("fd2", b1, b2),
			Fixes:     []model.Fix{model.NewCellFix(b2, model.OpEQ, b1)},
		},
	}
	algo := &Hypergraph{}
	as, err := algo.Repair(fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 1 {
		t.Errorf("greedy cover should make one update, got %v", as)
	}
}

func TestHypergraphNoFixesNoAction(t *testing.T) {
	c := model.NewCell(1, 0, model.S("x"))
	fs := []model.FixSet{{Violation: model.NewViolation("r", c)}}
	as, err := (&Hypergraph{}).Repair(fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 0 {
		t.Errorf("no fixes -> no assignments, got %v", as)
	}
}

func TestRepairParallelComponentsAreIndependent(t *testing.T) {
	// Two disjoint components repaired in parallel must match the
	// sequential result per component.
	fs := []model.FixSet{
		fdFixSet("fd", 1, 2, "LA", "SF"),
		fdFixSet("fd", 10, 11, "NY", "BO"),
		fdFixSet("fd", 12, 11, "NY", "BO"),
	}
	algo := &EquivalenceClass{}
	as, rep, err := RepairParallel(fs, algo, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Components != 2 {
		t.Errorf("components = %d, want 2", rep.Components)
	}
	byCell := map[string]model.Value{}
	for _, a := range as {
		byCell[a.Key()] = a.Value
	}
	// Component {10,11,12}: NY appears twice, BO once -> t11 becomes NY.
	if v := byCell["11#2"]; v != model.S("NY") {
		t.Errorf("t11 -> %v, want NY", v)
	}
	// Component {1,2}: tie between LA and SF -> deterministic winner LA.
	if v := byCell["2#2"]; v != model.S("LA") {
		t.Errorf("t2 -> %v, want LA", v)
	}
}

func TestRepairParallelMatchesSequential(t *testing.T) {
	var fs []model.FixSet
	for i := int64(0); i < 40; i += 2 {
		city1 := fmt.Sprintf("C%d", i%6)
		city2 := fmt.Sprintf("C%d", (i+2)%6)
		fs = append(fs, fdFixSet("fd", i, i+1, city1, city2))
	}
	algo := &EquivalenceClass{}
	seq, err := algo.Repair(fs)
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := RepairParallel(fs, algo, Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Same set of assignments (components are independent, and within a
	// component the algorithm is deterministic).
	if len(seq) != len(par) {
		t.Fatalf("sequential %d vs parallel %d assignments", len(seq), len(par))
	}
	sk := map[string]string{}
	for _, a := range seq {
		sk[a.Key()] = a.Value.String()
	}
	for _, a := range par {
		if sk[a.Key()] != a.Value.String() {
			t.Errorf("mismatch at %s: %s vs %s", a.Key(), sk[a.Key()], a.Value)
		}
	}
}

func TestRepairParallelSplitsBigComponents(t *testing.T) {
	// One giant star component: all linked to cell of tuple 0.
	var fs []model.FixSet
	for i := int64(1); i <= 30; i++ {
		fs = append(fs, fdFixSet("fd", 0, i, "HUB", fmt.Sprintf("X%d", i)))
	}
	algo := &EquivalenceClass{}
	as, rep, err := RepairParallel(fs, algo, Options{
		Parallelism:      4,
		MaxComponentSize: 10,
		KParts:           3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Components != 1 || rep.SplitComponents != 1 {
		t.Errorf("report = %+v, want 1 split component", rep)
	}
	// Every X cell should be assigned HUB (majority within each part
	// because the hub cell appears in every fix set).
	for _, a := range as {
		if a.Value != model.S("HUB") && a.TupleID != 0 {
			t.Errorf("assignment %v; expected HUB to dominate", a)
		}
	}
	// No duplicate assignments to one cell.
	seen := map[string]bool{}
	for _, a := range as {
		if seen[a.Key()] {
			t.Errorf("cell %s assigned twice", a.Key())
		}
		seen[a.Key()] = true
	}
}

func TestRepairParallelEmpty(t *testing.T) {
	as, rep, err := RepairParallel(nil, &EquivalenceClass{}, Options{})
	if err != nil || len(as) != 0 || rep.Components != 0 {
		t.Errorf("empty input: %v %v %v", as, rep, err)
	}
}

// jobExchange records, per Shuffle, how many bytes the disk engine under it
// wrote and read back.
type jobExchange struct {
	*mapred.Engine
	spilled, read []int64
}

func (x *jobExchange) Shuffle(op string, runs [][][]byte, n int) ([][]byte, error) {
	s0, r0 := x.Stats().BytesSpilled(), x.Stats().BytesRead()
	out, err := x.Engine.Shuffle(op, runs, n)
	x.spilled = append(x.spilled, x.Stats().BytesSpilled()-s0)
	x.read = append(x.read, x.Stats().BytesRead()-r0)
	return out, err
}

// TestDistributedEquivalenceClassMatchesCentralized runs the two
// map-reduce sequences in memory and on the disk backend. On disk, each of
// the two jobs must really have gone through run files: a key or value type
// without a registered codec would keep its shuffle in memory silently.
func TestDistributedEquivalenceClassMatchesCentralized(t *testing.T) {
	var fs []model.FixSet
	// Component A: 3 cells, majority LA. Component B: tie SF/NY.
	fs = append(fs,
		fdFixSet("fd", 1, 2, "LA", "LA"),
		fdFixSet("fd", 1, 3, "LA", "SF"),
		fdFixSet("fd", 10, 11, "SF", "NY"),
	)
	centralized := &EquivalenceClass{}
	want, err := centralized.Repair(fs)
	if err != nil {
		t.Fatal(err)
	}
	wk := map[string]string{}
	for _, a := range want {
		wk[a.Key()] = a.Value.String()
	}

	eng, err := mapred.New(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	disk := &jobExchange{Engine: eng}
	diskCtx, err := engine.NewContext(engine.Config{Parallelism: 3, Exchange: disk})
	if err != nil {
		t.Fatal(err)
	}
	defer diskCtx.Close()

	for name, ctx := range map[string]*engine.Context{"local": engine.New(3), "disk": diskCtx} {
		got, err := (&DistributedEquivalenceClass{Ctx: ctx}).Repair(fs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: distributed %v vs centralized %v", name, got, want)
		}
		for _, a := range got {
			if wk[a.Key()] != a.Value.String() {
				t.Errorf("%s: cell %s: distributed %s vs centralized %s", name, a.Key(), a.Value, wk[a.Key()])
			}
		}
	}
	if len(disk.spilled) != 2 {
		t.Fatalf("disk backend saw %d shuffles, want one per job", len(disk.spilled))
	}
	for job := range disk.spilled {
		if disk.spilled[job] <= 0 || disk.read[job] <= 0 {
			t.Errorf("job %d stayed in memory: %d bytes spilled, %d read", job+1, disk.spilled[job], disk.read[job])
		}
	}
}

func TestApplyRespectsFrozenCells(t *testing.T) {
	s := model.MustParseSchema("a,b")
	rel := model.NewRelation("r", s)
	rel.Append(model.NewTuple(1, model.S("x"), model.S("y")))
	as := []Assignment{
		{TupleID: 1, Col: 0, Value: model.S("new")},
		{TupleID: 1, Col: 1, Value: model.S("new")},
	}
	frozen := map[model.CellKey]bool{{TupleID: 1, Col: 0}: true}
	changed := Apply(rel, as, frozen)
	if changed != 1 {
		t.Errorf("changed = %d, want 1", changed)
	}
	if rel.Tuples[0].Cell(0) != model.S("x") || rel.Tuples[0].Cell(1) != model.S("new") {
		t.Errorf("tuple = %v", rel.Tuples[0])
	}
}
