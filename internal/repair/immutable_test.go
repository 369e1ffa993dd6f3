package repair_test

import (
	"reflect"
	"slices"
	"testing"

	"bigdansing/internal/core"
	"bigdansing/internal/datagen"
	"bigdansing/internal/engine"
	"bigdansing/internal/model"
	"bigdansing/internal/probrepair"
	"bigdansing/internal/repair"
	"bigdansing/internal/rules"
)

// fixSnap and setSnap are deep copies of a fix set's cells, taken through
// the public accessors so that later writes through any shared window show.
type fixSnap struct {
	Op          model.Op
	RightIsCell bool
	Cells       []model.Cell
	Const       model.Value
}

type setSnap struct {
	RuleID string
	Cells  []model.Cell
	Fixes  []fixSnap
}

func snapshot(sets []model.FixSet) []setSnap {
	out := make([]setSnap, len(sets))
	for i, fs := range sets {
		out[i] = setSnap{RuleID: fs.Violation.RuleID, Cells: slices.Clone(fs.Violation.Cells)}
		for _, f := range fs.Fixes {
			out[i].Fixes = append(out[i].Fixes, fixSnap{f.Op, f.RightIsCell, slices.Clone(f.Cells()), f.Const()})
		}
	}
	return out
}

// immutableFixSets detects an FD (cell fixes sharing their violation's
// cells), a CFD (constant fixes and shared cell fixes) and an inequality DC
// (shared and copied cell fixes) over a small dirty TaxA relation.
func immutableFixSets(t *testing.T) []model.FixSet {
	t.Helper()
	rel := datagen.TaxA(300, 0.1, 3).Dirty
	fd, err := rules.ParseFD("fd", "zipcode -> city")
	if err != nil {
		t.Fatal(err)
	}
	cfd, err := rules.ParseCFD("cfd", "zipcode -> state | _ => CA ; _ => _")
	if err != nil {
		t.Fatal(err)
	}
	dc, err := rules.ParseDC("dc", "t1.zipcode = t2.zipcode & t1.salary > t2.salary & t1.rate < t2.rate")
	if err != nil {
		t.Fatal(err)
	}
	fdRule, err := fd.Compile(rel.Schema)
	if err != nil {
		t.Fatal(err)
	}
	cfdRules, err := cfd.Compile(rel.Schema)
	if err != nil {
		t.Fatal(err)
	}
	dcRule, err := dc.Compile(rel.Schema)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.DetectRules(engine.New(2), append([]*core.Rule{fdRule, dcRule}, cfdRules...), rel)
	if err != nil {
		t.Fatal(err)
	}
	consts := 0
	for _, fs := range res.FixSets {
		for _, f := range fs.Fixes {
			if !f.RightIsCell {
				consts++
			}
		}
	}
	if len(res.FixSets) < 50 || consts == 0 {
		t.Fatalf("want a mix of fix kinds: %d fix sets, %d constant fixes", len(res.FixSets), consts)
	}
	return res.FixSets
}

// TestRepairLeavesDetectedCellsAlone runs every repair algorithm, whole and
// under the k-way split, over detected fix sets and checks that the fix
// sets' cells read exactly as before: fixes share their violation's cells,
// so a repair path that wrote through one would change the caller's
// violations. The split runs with small parts so that reconciliation
// re-queues conflicting fix sets with settled values substituted in.
func TestRepairLeavesDetectedCellsAlone(t *testing.T) {
	sets := immutableFixSets(t)
	want := snapshot(sets)
	algos := []repair.Algorithm{
		&repair.EquivalenceClass{},
		&repair.Hypergraph{},
		&repair.DistributedEquivalenceClass{Ctx: engine.New(2)},
		&probrepair.Prob{Samples: probrepair.DefaultSamples, Seed: 1},
	}
	conflicts := 0
	for _, algo := range algos {
		for _, opts := range []repair.Options{
			{Parallelism: 2},
			{Parallelism: 2, MaxComponentSize: 2, KParts: 4},
		} {
			_, rep, err := repair.RepairParallel(sets, algo, opts)
			if err != nil {
				t.Fatalf("%s %+v: %v", algo.Name(), opts, err)
			}
			conflicts += rep.Conflicts
			if got := snapshot(sets); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %+v changed the input fix sets' cells", algo.Name(), opts)
			}
		}
	}
	if conflicts == 0 {
		t.Error("no split repair reconciled a conflict; the substitution path went untested")
	}
}
