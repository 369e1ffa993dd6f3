package repair

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"bigdansing/internal/core"
	"bigdansing/internal/datagen"
	"bigdansing/internal/engine"
	"bigdansing/internal/model"
	"bigdansing/internal/rules"
)

// referenceEquivalenceClass is the map-keyed EquivalenceClass.Repair that the
// dense-ID implementation replaced, kept as the oracle
// TestEquivalenceClassMatchesReference compares against.
type referenceEquivalenceClass struct{ EquivalenceClass }

// refCellInfo tracks one element seen in the component.
type refCellInfo struct {
	cell model.Cell
	id   int64 // dense union-find id
}

// Repair runs the pre-dense-ID equivalence-class repair, verbatim.
func (r *referenceEquivalenceClass) Repair(component []model.FixSet) ([]Assignment, error) {
	e := &r.EquivalenceClass
	// Collect cells and union the ones equality fixes connect; cells are
	// interned on their comparable key, never a rendered string.
	ids := map[model.CellKey]*refCellInfo{}
	uf := newUnionFind()
	next := int64(0)
	intern := func(c model.Cell) *refCellInfo {
		k := c.MapKey()
		if ci, ok := ids[k]; ok {
			return ci
		}
		ci := &refCellInfo{cell: c, id: next}
		next++
		ids[k] = ci
		uf.Add(ci.id)
		return ci
	}
	// constPref[classRep] accumulates constant requirements.
	type constVote struct {
		v     model.Value
		count int
	}
	constVotes := map[model.CellKey][]constVote{} // keyed by cell pre-union; resolved later

	for _, fs := range component {
		for _, c := range fs.Violation.Cells {
			intern(c)
		}
		for _, f := range fs.Fixes {
			if f.Op != model.OpEQ {
				continue // the equivalence class algorithm consumes equality fixes
			}
			l := intern(f.Left())
			if f.RightIsCell {
				r := intern(f.RightCell())
				uf.Union(l.id, r.id)
			} else {
				k := f.Left().MapKey()
				votes := constVotes[k]
				found := false
				for i := range votes {
					if votes[i].v.Equal(f.Const()) {
						votes[i].count++
						found = true
						break
					}
				}
				if !found {
					votes = append(votes, constVote{v: f.Const(), count: 1})
				}
				constVotes[k] = votes
			}
		}
	}

	// Group cells by class representative.
	classes := map[int64][]*refCellInfo{}
	for _, ci := range ids {
		classes[uf.Find(ci.id)] = append(classes[uf.Find(ci.id)], ci)
	}

	var out []Assignment
	for _, members := range classes {
		if len(members) == 0 {
			continue
		}
		// Candidate values: current member values, plus constants.
		type cand struct {
			v     model.Value
			count int
		}
		var cands []cand
		bump := func(v model.Value, by int) {
			for i := range cands {
				if cands[i].v.Equal(v) {
					cands[i].count += by
					return
				}
			}
			cands = append(cands, cand{v: v, count: by})
		}
		for _, m := range members {
			bump(m.cell.Value, 1)
			if e.Prior != nil {
				if v, ok := e.Prior.Prefer(m.cell.MapKey()); ok {
					bump(v, 1)
				}
			}
			for _, cv := range constVotes[m.cell.MapKey()] {
				// A constant requirement outweighs frequency: CFD constants
				// are hard. Weight it above any possible member count.
				bump(cv.v, cv.count+len(members))
			}
		}
		if len(members) == 1 && len(constVotes[members[0].cell.MapKey()]) == 0 {
			continue // nothing requires this lone cell to change
		}
		// Pick the highest count; break ties by smaller rendered value so
		// the algorithm is deterministic.
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].count != cands[j].count {
				return cands[i].count > cands[j].count
			}
			return cands[i].v.String() < cands[j].v.String()
		})
		target := cands[0].v
		for _, m := range members {
			if !m.cell.Value.Equal(target) {
				out = append(out, Assignment{
					TupleID: m.cell.TupleID,
					Col:     m.cell.Col,
					Value:   target,
				})
			}
		}
	}
	sortAssignments(out)
	return out, nil
}

// ecPalette holds values that Equal only themselves and render apart, so
// the reference's candidate order (it walks a map) cannot change its pick.
var ecPalette = []model.Value{
	model.S("a"), model.S("b"), model.S("c"), model.S("10"), model.S("9"),
	model.I(2), model.I(-1), model.F(2.5), model.F(-0.5), model.Null(),
}

// randomECComponent builds fix sets over a small pool of cell positions,
// each holding one value throughout (the invariant of one detection).
// Violations list some positions; fixes mix equality and other ops, cell
// and constant right-hand sides, cells outside the violation and fixes
// whose two sides are one cell, and positions repeat across fix sets.
// It returns the component and a prior voting on some positions.
func randomECComponent(rng *rand.Rand) ([]model.FixSet, *ClassMemory) {
	pool := make([]model.Cell, 1+rng.Intn(12))
	for i := range pool {
		pool[i] = model.NewCell(int64(rng.Intn(8)), rng.Intn(3), ecPalette[rng.Intn(len(ecPalette))])
	}
	// Positions may repeat in the pool; the first draw's value holds.
	valueOf := map[model.CellKey]model.Value{}
	for i, c := range pool {
		if v, ok := valueOf[c.MapKey()]; ok {
			pool[i].Value = v
		} else {
			valueOf[c.MapKey()] = c.Value
		}
	}
	cell := func() model.Cell { return pool[rng.Intn(len(pool))] }
	ops := []model.Op{model.OpEQ, model.OpEQ, model.OpEQ, model.OpNEQ, model.OpLT, model.OpGE}
	comp := make([]model.FixSet, 1+rng.Intn(14))
	for i := range comp {
		vc := make([]model.Cell, 1+rng.Intn(3))
		for j := range vc {
			vc[j] = cell()
		}
		comp[i].Violation = model.NewViolation("r", vc...)
		for range rng.Intn(4) {
			left, op := vc[rng.Intn(len(vc))], ops[rng.Intn(len(ops))]
			if rng.Intn(3) == 0 {
				left = cell()
			}
			var f model.Fix
			switch rng.Intn(10) {
			case 0:
				f = model.NewCellFix(left, op, left)
			case 1, 2, 3:
				f = model.NewCellFix(left, op, vc[rng.Intn(len(vc))])
			case 4, 5:
				f = model.NewCellFix(left, op, cell())
			default:
				f = model.NewConstFix(left, op, ecPalette[rng.Intn(len(ecPalette))])
			}
			comp[i].Fixes = append(comp[i].Fixes, f)
		}
	}
	prior := NewClassMemory()
	var votes []Assignment
	for _, c := range pool {
		if rng.Intn(3) == 0 {
			votes = append(votes, Assignment{TupleID: c.TupleID, Col: c.Col, Value: ecPalette[rng.Intn(len(ecPalette))]})
		}
	}
	prior.Record(votes, nil)
	return comp, prior
}

func TestEquivalenceClassMatchesReference(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		for i := 0; i < 2000; i++ {
			rng := rand.New(rand.NewSource(int64(i)))
			comp, prior := randomECComponent(rng)
			ec := EquivalenceClass{}
			if rng.Intn(2) == 0 {
				ec.Prior = prior
			}
			want, err := (&referenceEquivalenceClass{ec}).Repair(comp)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ec.Repair(comp)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(exactAssignments(got), exactAssignments(want)) {
				t.Fatalf("component %d (prior %v):\ngot  %v\nwant %v\nfix sets %v", i, ec.Prior != nil, got, want, comp)
			}
		}
	})
	t.Run("taxa_phi1", func(t *testing.T) {
		fd, err := rules.ParseFD("phi1", "zipcode -> city")
		if err != nil {
			t.Fatal(err)
		}
		rule, err := fd.Compile(datagen.TaxSchema())
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 2, 3} {
			res, err := core.DetectRule(engine.New(2), rule, datagen.TaxA(3000, 0.05, seed).Dirty)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := RepairParallel(res.FixSets, &referenceEquivalenceClass{}, Options{Parallelism: 2})
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := RepairParallel(res.FixSets, &EquivalenceClass{}, Options{Parallelism: 2})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) == 0 || !reflect.DeepEqual(exactAssignments(got), exactAssignments(want)) {
				t.Fatalf("seed %d: %d assignments, reference %d", seed, len(got), len(want))
			}
		}
	})
}
