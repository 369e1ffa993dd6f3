package probrepair

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"bigdansing/internal/model"
	"bigdansing/internal/repair"
)

// fdFixSet builds the fix set of an FD violation between two city cells.
func fdFixSet(rule string, t1, t2 int64, v1, v2 string) model.FixSet {
	c1 := model.NewCell(t1, 2, model.S(v1))
	c2 := model.NewCell(t2, 2, model.S(v2))
	return model.FixSet{
		Violation: model.NewViolation(rule, c1, c2),
		Fixes:     []model.Fix{model.NewCellFix(c1, model.OpEQ, c2)},
	}
}

func TestCompileMergesEqualityFixesIntoOneVariable(t *testing.T) {
	// t1=LA, t2=LA, t3=SF all tied: one class, domain {LA, SF},
	// votes 2 vs 1, init = LA.
	fs := []model.FixSet{
		fdFixSet("fd", 1, 3, "LA", "SF"),
		fdFixSet("fd", 2, 3, "LA", "SF"),
	}
	g := compile(fs, nil, DefaultMaxDomain)
	if len(g.vars) != 1 {
		t.Fatalf("vars = %d, want 1", len(g.vars))
	}
	v := g.vars[0]
	if len(v.cells) != 3 {
		t.Fatalf("members = %d, want 3", len(v.cells))
	}
	if len(v.domain) != 2 {
		t.Fatalf("domain = %v, want {LA, SF}", v.domain)
	}
	if !v.domain[v.init].Equal(model.S("LA")) {
		t.Errorf("init = %v, want the majority value LA", v.domain[v.init])
	}
	votes := map[string]float64{}
	for d, dv := range v.domain {
		votes[dv.String()] = v.votes[d]
	}
	if votes["LA"] != 2 || votes["SF"] != 1 {
		t.Errorf("votes = %v, want LA:2 SF:1", votes)
	}
}

func TestCompileConstFixRestrictsDomain(t *testing.T) {
	// A CFD constant fix makes the domain the constant target alone, the
	// same hard-requirement treatment the other algorithms use.
	c1 := model.NewCell(1, 2, model.S("SF"))
	c2 := model.NewCell(2, 2, model.S("SF"))
	fs := []model.FixSet{{
		Violation: model.NewViolation("cfd", c1, c2),
		Fixes: []model.Fix{
			model.NewCellFix(c1, model.OpEQ, c2),
			model.NewConstFix(c1, model.OpEQ, model.S("LA")),
		},
	}}
	g := compile(fs, nil, DefaultMaxDomain)
	if len(g.vars) != 1 {
		t.Fatalf("vars = %d, want 1", len(g.vars))
	}
	v := g.vars[0]
	if len(v.domain) != 1 || !v.domain[0].Equal(model.S("LA")) {
		t.Fatalf("domain = %v, want exactly {LA}", v.domain)
	}
}

func TestCompileSkipsImmovableLoneCells(t *testing.T) {
	// A >= fix connects two rate cells: both become (active) singleton
	// variables with a cross factor; a lone cell with no constant and no
	// cross factor would get none.
	r1 := model.NewCell(1, 3, model.I(5))
	r2 := model.NewCell(2, 3, model.I(9))
	fs := []model.FixSet{{
		Violation: model.NewViolation("dc", r1, r2),
		Fixes:     []model.Fix{model.NewCellFix(r1, model.OpGE, r2)},
	}}
	g := compile(fs, nil, DefaultMaxDomain)
	if len(g.vars) != 2 {
		t.Fatalf("vars = %d, want 2 singleton variables", len(g.vars))
	}
	if len(g.factors) != 1 {
		t.Fatalf("cross factors = %d, want 1", len(g.factors))
	}
}

// randomComponent builds a random but internally consistent component: each
// (tuple, col) cell has one fixed value, fixes mix cell-cell equalities,
// constant equalities and cross inequalities.
func randomComponent(rng *rand.Rand) []model.FixSet {
	cities := []string{"LA", "SF", "NY", "CHI", "DAL"}
	vals := map[int64]model.Value{}
	cellOf := func(tid int64) model.Cell {
		v, ok := vals[tid]
		if !ok {
			v = model.S(cities[rng.Intn(len(cities))])
			vals[tid] = v
		}
		return model.NewCell(tid, 2, v)
	}
	n := 1 + rng.Intn(6)
	fss := make([]model.FixSet, 0, n)
	for i := 0; i < n; i++ {
		t1 := int64(rng.Intn(8))
		t2 := int64(rng.Intn(8))
		if t1 == t2 {
			t2 = (t1 + 1) % 8
		}
		c1, c2 := cellOf(t1), cellOf(t2)
		var fix model.Fix
		switch rng.Intn(10) {
		case 0:
			fix = model.NewConstFix(c1, model.OpEQ, model.S(cities[rng.Intn(len(cities))]))
		case 1:
			fix = model.NewCellFix(c1, model.OpNEQ, c2)
		default:
			fix = model.NewCellFix(c1, model.OpEQ, c2)
		}
		fss = append(fss, model.FixSet{
			Violation: model.NewViolation(fmt.Sprintf("r%d", i), c1, c2),
			Fixes:     []model.Fix{fix},
		})
	}
	return fss
}

func TestZeroSamplesDegradesExactlyToEquivalenceClass(t *testing.T) {
	// Property: with Samples == 0 the prob algorithm IS the
	// equivalence-class algorithm, assignment for assignment.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		fss := randomComponent(rng)
		eqAs, err := (&repair.EquivalenceClass{}).Repair(fss)
		if err != nil {
			t.Fatal(err)
		}
		probAs, err := (&Prob{Samples: 0, Seed: int64(trial)}).Repair(fss)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(eqAs, probAs) {
			t.Fatalf("trial %d: prob(Samples=0) diverged from eq:\n eq  = %v\n prob= %v\n component = %v",
				trial, eqAs, probAs, fss)
		}
	}
}

func TestRepairDeterministicUnderFixSetPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		fss := randomComponent(rng)
		base, err := (&Prob{Samples: DefaultSamples, Seed: 42}).Repair(fss)
		if err != nil {
			t.Fatal(err)
		}
		for perm := 0; perm < 4; perm++ {
			shuffled := append([]model.FixSet{}, fss...)
			rng.Shuffle(len(shuffled), func(i, j int) {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			})
			got, err := (&Prob{Samples: DefaultSamples, Seed: 42}).Repair(shuffled)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(base, got) {
				t.Fatalf("trial %d perm %d: permuted fix sets changed the answer:\n base = %v\n got  = %v",
					trial, perm, base, got)
			}
		}
	}
}

func TestSymmetricTieFallsBackToEquivalenceChoice(t *testing.T) {
	// A two-cell tie has a flat marginal: the margin threshold must route
	// it to the equivalence-class tie-break (smaller rendered value).
	fss := []model.FixSet{fdFixSet("fd", 1, 2, "SF", "LA")}
	as, err := (&Prob{Samples: DefaultSamples, Seed: 3}).Repair(fss)
	if err != nil {
		t.Fatal(err)
	}
	eqAs, _ := (&repair.EquivalenceClass{}).Repair(fss)
	if !reflect.DeepEqual(as, eqAs) {
		t.Errorf("tie: prob = %v, want the eq fallback %v", as, eqAs)
	}
}

func TestMajorityVoteWinsWithSampling(t *testing.T) {
	// 3 clean LA cells vs 1 corrupted SF cell: the marginal concentrates on
	// LA and the corrupt cell is repaired.
	fss := []model.FixSet{
		fdFixSet("fd", 1, 4, "LA", "SF"),
		fdFixSet("fd", 2, 4, "LA", "SF"),
		fdFixSet("fd", 3, 4, "LA", "SF"),
	}
	as, err := (&Prob{Samples: DefaultSamples, Seed: 1}).Repair(fss)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 1 || as[0].TupleID != 4 || !as[0].Value.Equal(model.S("LA")) {
		t.Fatalf("assignments = %v, want t4.city -> LA", as)
	}
}

func TestConstFixCommitted(t *testing.T) {
	c1 := model.NewCell(1, 2, model.S("SF"))
	fss := []model.FixSet{{
		Violation: model.NewViolation("cfd", c1),
		Fixes:     []model.Fix{model.NewConstFix(c1, model.OpEQ, model.S("LA"))},
	}}
	as, err := (&Prob{Samples: DefaultSamples, Seed: 1}).Repair(fss)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 1 || !as[0].Value.Equal(model.S("LA")) {
		t.Fatalf("assignments = %v, want t1.city -> LA", as)
	}
}

func TestCrossFactorSteersInequalityRepair(t *testing.T) {
	// DC-style: t1.rate must be >= t2.rate but is 5 vs 9. The equivalence
	// algorithm proposes nothing (no equality fixes); prob can move a rate
	// to a co-occurring value that satisfies the factor.
	// Two witnesses agree r1 is too small (both demand r1 >= 9), so the
	// (9,9,9) mode dominates and the sampler raises r1 instead of lowering
	// both witnesses.
	r1 := model.NewCell(1, 3, model.I(5))
	r2 := model.NewCell(2, 3, model.I(9))
	r3 := model.NewCell(3, 3, model.I(9))
	fss := []model.FixSet{
		{
			Violation: model.NewViolation("dc", r1, r2),
			Fixes:     []model.Fix{model.NewCellFix(r1, model.OpGE, r2)},
		},
		{
			Violation: model.NewViolation("dc", r1, r3),
			Fixes:     []model.Fix{model.NewCellFix(r1, model.OpGE, r3)},
		},
	}
	eqAs, _ := (&repair.EquivalenceClass{}).Repair(fss)
	if len(eqAs) != 0 {
		t.Fatalf("eq should propose nothing for inequality fixes, got %v", eqAs)
	}
	as, err := (&Prob{Samples: DefaultSamples, Seed: 1}).Repair(fss)
	if err != nil {
		t.Fatal(err)
	}
	vals := map[int64]model.Value{1: model.I(5), 2: model.I(9), 3: model.I(9)}
	for _, a := range as {
		vals[a.TupleID] = a.Value
	}
	if model.Compare(vals[1], vals[2]) < 0 || model.Compare(vals[1], vals[3]) < 0 {
		t.Errorf("after repair rate1=%v vs %v/%v still violates; assignments = %v",
			vals[1], vals[2], vals[3], as)
	}
}

func TestCloneAlgorithmIsolatesLearnedState(t *testing.T) {
	p := &Prob{Samples: DefaultSamples, Seed: 5}
	p.setLearned(&learnedState{wMin: 7, wCooc: 7})
	cl := p.CloneAlgorithm().(*Prob)
	if cl.learnedRef() != nil {
		t.Error("clone must start with fresh learned state")
	}
	if cl.Seed != 5 || cl.Samples != DefaultSamples {
		t.Errorf("clone lost configuration: %+v", cl)
	}
}

func TestAlgorithmCodeRegistersProb(t *testing.T) {
	// Exported traces carry these numbers, so they never move; a retired
	// name maps to AlgoUnknown.
	for name, want := range map[string]int64{
		"equivalence-class":    1,
		"hypergraph":           2,
		"equivalence-class-mr": 4,
		"prob":                 5,
		"sampling":             repair.AlgoUnknown,
		"nope":                 repair.AlgoUnknown,
	} {
		if got := repair.AlgorithmCode(name); got != want {
			t.Errorf("AlgorithmCode(%q) = %d, want %d", name, got, want)
		}
	}
	if repair.AlgoEquivalenceClass != 1 || repair.AlgoHypergraph != 2 || repair.AlgoDistributedEq != 4 || repair.AlgoProb != 5 {
		t.Error("algorithm code constants moved")
	}
}
