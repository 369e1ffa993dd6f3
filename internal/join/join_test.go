package join

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"bigdansing/internal/engine"
	"bigdansing/internal/model"
)

// taxTuples builds tuples with (salary, rate) columns.
func taxTuples(n int, seed int64) []model.Tuple {
	r := rand.New(rand.NewSource(seed))
	out := make([]model.Tuple, n)
	for i := range out {
		out[i] = model.NewTuple(int64(i),
			model.F(float64(r.Intn(1000))),  // salary
			model.F(float64(r.Intn(100))/2)) // rate
	}
	return out
}

// phi2Conds encodes DC φ2's predicates: t1.salary > t2.salary AND
// t1.rate < t2.rate (violating pairs of the tax DC).
func phi2Conds() []Cond {
	return []Cond{
		{LeftCol: 0, Op: model.OpGT, RightCol: 0},
		{LeftCol: 1, Op: model.OpLT, RightCol: 1},
	}
}

func pairKey(p engine.PairOf[model.Tuple]) [2]int64 {
	return [2]int64{p.Left.ID, p.Right.ID}
}

func sortedKeys(pairs []engine.PairOf[model.Tuple]) [][2]int64 {
	keys := make([][2]int64, len(pairs))
	for i, p := range pairs {
		keys[i] = pairKey(p)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	return keys
}

// ocPairs runs OCJoin and collects the pairs its tasks visit, in task
// order. It also checks each task's Bound: never below what Each visits,
// and equal to it with at most two conditions.
func ocPairs(d *engine.Dataset[model.Tuple], conds []Cond, parts int) ([]engine.PairOf[model.Tuple], error) {
	ds, err := OCJoin(d, conds, parts)
	if err != nil {
		return nil, err
	}
	tasks, err := ds.Collect()
	if err != nil {
		return nil, err
	}
	var out []engine.PairOf[model.Tuple]
	for _, tk := range tasks {
		n := len(out)
		tk.Each(func(l, r model.Tuple) { out = append(out, engine.PairOf[model.Tuple]{Left: l, Right: r}) })
		if b := tk.Bound(); b < len(out)-n || len(conds) <= 2 && b != len(out)-n {
			return nil, fmt.Errorf("task bound %d, visited %d pairs", b, len(out)-n)
		}
	}
	return out, nil
}

func TestOCJoinMatchesNaiveOracle(t *testing.T) {
	ctx := engine.New(4)
	for _, n := range []int{0, 1, 2, 10, 50, 200} {
		tuples := taxTuples(n, int64(n))
		d := engine.Parallelize(ctx, tuples, 4)
		gotPairs, err := ocPairs(d, phi2Conds(), 5)
		if err != nil {
			t.Fatal(err)
		}
		want := NaiveInequalityJoin(tuples, phi2Conds())
		gk, wk := sortedKeys(gotPairs), sortedKeys(want)
		if len(gk) != len(wk) {
			t.Fatalf("n=%d: OCJoin %d pairs, naive %d", n, len(gk), len(wk))
		}
		for i := range gk {
			if gk[i] != wk[i] {
				t.Fatalf("n=%d: pair %d mismatch: %v vs %v", n, i, gk[i], wk[i])
			}
		}
	}
}

func TestOCJoinProperty(t *testing.T) {
	ctx := engine.New(4)
	f := func(seed int64, nRaw uint8, partsRaw uint8) bool {
		n := int(nRaw%60) + 1
		parts := int(partsRaw%6) + 1
		tuples := taxTuples(n, seed)
		d := engine.Parallelize(ctx, tuples, 3)
		gotPairs, err := ocPairs(d, phi2Conds(), parts)
		if err != nil {
			return false
		}
		want := NaiveInequalityJoin(tuples, phi2Conds())
		gk, wk := sortedKeys(gotPairs), sortedKeys(want)
		if len(gk) != len(wk) {
			return false
		}
		for i := range gk {
			if gk[i] != wk[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestOCJoinSingleCondition(t *testing.T) {
	ctx := engine.New(2)
	tuples := []model.Tuple{
		model.NewTuple(0, model.F(10)),
		model.NewTuple(1, model.F(20)),
		model.NewTuple(2, model.F(30)),
	}
	d := engine.Parallelize(ctx, tuples, 2)
	conds := []Cond{{LeftCol: 0, Op: model.OpLT, RightCol: 0}}
	pairs, err := ocPairs(d, conds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 3 { // (0,1),(0,2),(1,2)
		t.Fatalf("pairs = %d, want 3: %v", len(pairs), sortedKeys(pairs))
	}
	for _, p := range pairs {
		if model.Compare(p.Left.Cell(0), p.Right.Cell(0)) >= 0 {
			t.Errorf("pair violates condition: %v", p)
		}
	}
}

func TestOCJoinAllEqualValues(t *testing.T) {
	// Every salary equal: strict < produces nothing; <= produces all ordered pairs.
	ctx := engine.New(2)
	tuples := make([]model.Tuple, 10)
	for i := range tuples {
		tuples[i] = model.NewTuple(int64(i), model.F(5))
	}
	d := engine.Parallelize(ctx, tuples, 3)
	lt, err := ocPairs(d, []Cond{{0, model.OpLT, 0}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(lt); n != 0 {
		t.Errorf("strict < on equal values = %d pairs", n)
	}
	le, err := ocPairs(d, []Cond{{0, model.OpLE, 0}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(le); n != 90 {
		t.Errorf("<= on equal values = %d pairs, want 90", n)
	}
}

func TestOCJoinRejectsNonOrderingConds(t *testing.T) {
	ctx := engine.New(2)
	d := engine.Parallelize(ctx, taxTuples(5, 1), 2)
	if _, err := OCJoin(d, []Cond{{0, model.OpEQ, 0}}, 2); err == nil {
		t.Error("equality condition should be rejected")
	}
	if _, err := OCJoin(d, nil, 2); err == nil {
		t.Error("empty conditions should be rejected")
	}
}

func TestOCJoinGEAndGECombination(t *testing.T) {
	ctx := engine.New(4)
	tuples := taxTuples(80, 7)
	d := engine.Parallelize(ctx, tuples, 4)
	conds := []Cond{
		{LeftCol: 0, Op: model.OpGE, RightCol: 0},
		{LeftCol: 1, Op: model.OpLE, RightCol: 1},
	}
	gotPairs, err := ocPairs(d, conds, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := NaiveInequalityJoin(tuples, conds)
	if len(gotPairs) != len(want) {
		t.Fatalf("GE/LE: %d vs naive %d", len(gotPairs), len(want))
	}
}

func TestCrossProductCounts(t *testing.T) {
	ctx := engine.New(4)
	d := engine.Parallelize(ctx, taxTuples(20, 3), 4)
	full, _ := CrossProduct(d).Count()
	uniq, _ := UCrossProduct(d).Count()
	if full != 20*19 {
		t.Errorf("cross product = %d", full)
	}
	if uniq != 20*19/2 {
		t.Errorf("ucross product = %d", uniq)
	}
}

func TestOCJoinNoDuplicatePairs(t *testing.T) {
	ctx := engine.New(4)
	tuples := taxTuples(100, 11)
	d := engine.Parallelize(ctx, tuples, 4)
	pairs, err := ocPairs(d, phi2Conds(), 6)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]int64]bool{}
	for _, p := range pairs {
		k := pairKey(p)
		if seen[k] {
			t.Fatalf("duplicate pair %v", k)
		}
		seen[k] = true
	}
}

func BenchmarkOCJoinVsNaive(b *testing.B) {
	// Mostly-clean TaxB-shaped data (rate monotone in salary, 5% corrupted):
	// the violating-pair output stays small relative to the n^2 candidate
	// space, the regime OCJoin is built for.
	ctx := engine.New(4)
	r := rand.New(rand.NewSource(42))
	tuples := make([]model.Tuple, 2000)
	for i := range tuples {
		salary := float64(r.Intn(100000))
		rate := salary / 1000
		if r.Intn(100) < 5 {
			rate = float64(r.Intn(100))
		}
		tuples[i] = model.NewTuple(int64(i), model.F(salary), model.F(rate))
	}
	d := engine.Parallelize(ctx, tuples, 4)
	b.Run("OCJoin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ocPairs(d, phi2Conds(), 8); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = NaiveInequalityJoin(tuples, phi2Conds())
		}
	})
}
