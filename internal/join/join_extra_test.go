package join

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bigdansing/internal/engine"
	"bigdansing/internal/model"
)

// wideTuples builds tuples with three float columns.
func wideTuples(n int, seed int64) []model.Tuple {
	r := rand.New(rand.NewSource(seed))
	out := make([]model.Tuple, n)
	for i := range out {
		out[i] = model.NewTuple(int64(i),
			model.F(float64(r.Intn(50))),
			model.F(float64(r.Intn(50))),
			model.F(float64(r.Intn(50))))
	}
	return out
}

func TestOCJoinThreeConditions(t *testing.T) {
	ctx := engine.New(4)
	tuples := wideTuples(120, 5)
	d := engine.Parallelize(ctx, tuples, 4)
	conds := []Cond{
		{LeftCol: 0, Op: model.OpGT, RightCol: 0},
		{LeftCol: 1, Op: model.OpLT, RightCol: 1},
		{LeftCol: 2, Op: model.OpLE, RightCol: 2},
	}
	gotPairs, err := ocPairs(d, conds, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := NaiveInequalityJoin(tuples, conds)
	gk, wk := sortedKeys(gotPairs), sortedKeys(want)
	if len(gk) != len(wk) {
		t.Fatalf("3-cond: OCJoin %d vs naive %d", len(gk), len(wk))
	}
	for i := range gk {
		if gk[i] != wk[i] {
			t.Fatalf("3-cond pair mismatch at %d", i)
		}
	}
}

// TestOCJoinAllOpCombinations sweeps every ordered pair of ordering
// operators as a two-condition conjunction and checks against the oracle.
func TestOCJoinAllOpCombinations(t *testing.T) {
	ctx := engine.New(4)
	ops := []model.Op{model.OpLT, model.OpLE, model.OpGT, model.OpGE}
	tuples := wideTuples(60, 9)
	d := engine.Parallelize(ctx, tuples, 3)
	for _, op0 := range ops {
		for _, op1 := range ops {
			conds := []Cond{
				{LeftCol: 0, Op: op0, RightCol: 0},
				{LeftCol: 1, Op: op1, RightCol: 1},
			}
			pairs, err := ocPairs(d, conds, 3)
			if err != nil {
				t.Fatalf("%v/%v: %v", op0, op1, err)
			}
			n := len(pairs)
			want := len(NaiveInequalityJoin(tuples, conds))
			if n != want {
				t.Errorf("ops %v,%v: OCJoin %d vs naive %d", op0, op1, n, want)
			}
		}
	}
}

// TestOCJoinCrossColumnConditions joins different columns on the two sides
// (t1.a < t2.b), which exercises the bounds bookkeeping.
func TestOCJoinCrossColumnConditions(t *testing.T) {
	ctx := engine.New(4)
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%50) + 2
		tuples := wideTuples(n, seed)
		d := engine.Parallelize(ctx, tuples, 3)
		conds := []Cond{
			{LeftCol: 0, Op: model.OpLT, RightCol: 1},
			{LeftCol: 1, Op: model.OpGE, RightCol: 2},
		}
		gotPairs, err := ocPairs(d, conds, 4)
		if err != nil {
			return false
		}
		want := NaiveInequalityJoin(tuples, conds)
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
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestOCJoinManyPartitionsFewTuples(t *testing.T) {
	ctx := engine.New(4)
	tuples := wideTuples(3, 1)
	d := engine.Parallelize(ctx, tuples, 2)
	pairs, err := ocPairs(d, []Cond{{LeftCol: 0, Op: model.OpLT, RightCol: 0}}, 16)
	if err != nil {
		t.Fatal(err)
	}
	n := len(pairs)
	want := len(NaiveInequalityJoin(tuples, []Cond{{LeftCol: 0, Op: model.OpLT, RightCol: 0}}))
	if n != want {
		t.Errorf("more partitions than tuples: %d vs %d", n, want)
	}
}

func TestEmitSetBits(t *testing.T) {
	bits := make([]uint64, 3) // 192 positions
	for _, pos := range []int{0, 5, 63, 64, 100, 191} {
		bits[pos>>6] |= 1 << uint(pos&63)
	}
	collect := func(lo, hi int) []int {
		var out []int
		emitSetBits(bits, lo, hi, func(r int) { out = append(out, r) })
		return out
	}
	if got := collect(0, 192); len(got) != 6 {
		t.Errorf("full range: %v", got)
	}
	if got := collect(5, 64); len(got) != 2 || got[0] != 5 || got[1] != 63 {
		t.Errorf("[5,64): %v", got)
	}
	if got := collect(64, 65); len(got) != 1 || got[0] != 64 {
		t.Errorf("[64,65): %v", got)
	}
	if got := collect(101, 191); len(got) != 0 {
		t.Errorf("(100,191): %v", got)
	}
	if got := collect(10, 10); got != nil {
		t.Errorf("empty range: %v", got)
	}
}
