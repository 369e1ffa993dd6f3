package repair

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"bigdansing/internal/model"
)

// randomFixSets draws fix sets over a pool of sparse tuple IDs (huge and
// negative ones among them) and several columns. Violations have one to
// three cells; fixes relate two violation cells (copied, or as a window on
// the violation's own cells), a violation cell and a cell outside the
// violation, or a cell and a constant.
func randomFixSets(r *rand.Rand) []model.FixSet {
	tids := []int64{0, 3, 17, -1, -1 << 40, 1 << 40, 1<<40 + 1, 1<<62 - 5}
	cell := func() model.Cell {
		return model.NewCell(tids[r.Intn(len(tids))], []int{0, 2, 5, 11}[r.Intn(4)], model.S("v"))
	}
	fixSets := make([]model.FixSet, 1+r.Intn(60))
	for i := range fixSets {
		vc := make([]model.Cell, 1+r.Intn(3))
		for j := range vc {
			vc[j] = cell()
		}
		fs := model.FixSet{Violation: model.NewViolation("r", vc...)}
		for range r.Intn(3) {
			left := vc[r.Intn(len(vc))]
			switch r.Intn(4) {
			case 0:
				fs.Fixes = append(fs.Fixes, model.NewCellFix(left, model.OpEQ, vc[r.Intn(len(vc))]))
			case 1:
				if k := r.Intn(len(vc)); k+2 <= len(vc) {
					fs.Fixes = append(fs.Fixes, model.CellFixOf(vc[k:k+2:k+2], model.OpEQ))
				}
			case 2:
				fs.Fixes = append(fs.Fixes, model.NewCellFix(left, model.OpLT, cell()))
			default:
				fs.Fixes = append(fs.Fixes, model.NewConstFix(left, model.OpNEQ, model.I(int64(r.Intn(5)))))
			}
		}
		fixSets[i] = fs
	}
	return fixSets
}

// componentOracle labels each fix set with the smallest index of its
// component, linking fix sets through every cell they touch (a constant
// fix's constant is not a cell).
func componentOracle(fixSets []model.FixSet) []int32 {
	uf := newUnionFind()
	firstWith := map[model.CellKey]int64{}
	for i, fs := range fixSets {
		uf.Add(int64(i))
		cells := slices.Clone(fs.Violation.Cells)
		for _, f := range fs.Fixes {
			cells = append(cells, f.Cells()...)
		}
		for _, c := range cells {
			if first, ok := firstWith[c.MapKey()]; ok {
				uf.Union(first, int64(i))
			} else {
				firstWith[c.MapKey()] = int64(i)
			}
		}
	}
	labels := uf.Components()
	want := make([]int32, len(fixSets))
	for i := range want {
		want[i] = int32(labels[int64(i)])
	}
	return want
}

// TestFixSetComponentsMinRootContract pins what RepairParallel's grouping
// relies on: two fix sets share a component exactly when a chain of shared
// cells links them, and the component's ID is its smallest fix-set index.
// gatherComponents then lays every component out as one window, in
// fix-set order; a layout whose components are already contiguous is
// handed back as the input itself, neither written nor reordered, and any
// other is copied.
func TestFixSetComponentsMinRootContract(t *testing.T) {
	branches := map[bool]int{}
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		interleaved := randomFixSets(r)
		want := componentOracle(interleaved)
		// The same fix sets regrouped component by component.
		var grouped []model.FixSet
		for id := range want {
			for i, w := range want {
				if int(w) == id {
					grouped = append(grouped, interleaved[i])
				}
			}
		}
		for _, fixSets := range [][]model.FixSet{interleaved, grouped} {
			want := componentOracle(fixSets)
			got := fixSetComponents(fixSets)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d: components %v, want %v", seed, got, want)
			}
			before := slices.Clone(fixSets)
			sets, bounds := gatherComponents(fixSets, got)
			if !reflect.DeepEqual(fixSets, before) {
				t.Fatalf("seed %d: gatherComponents wrote its input", seed)
			}
			contiguous := slices.IsSorted(got)
			branches[contiguous]++
			if aliased := &sets[0] == &fixSets[0]; aliased != contiguous {
				t.Fatalf("seed %d: contiguous %v but aliased %v", seed, contiguous, aliased)
			}
			var wantSets []model.FixSet
			var wantBounds []int
			for id := range want {
				for i, w := range want {
					if int(w) != id {
						continue
					}
					if i == id {
						wantBounds = append(wantBounds, len(wantSets))
					}
					wantSets = append(wantSets, fixSets[i])
				}
			}
			wantBounds = append(wantBounds, len(fixSets))
			if !slices.Equal(bounds, wantBounds) || !reflect.DeepEqual(sets, wantSets) {
				t.Fatalf("seed %d: gathered bounds %v, want %v", seed, bounds, wantBounds)
			}
		}
	}
	if branches[true] == 0 || branches[false] == 0 {
		t.Fatalf("gather branches exercised: %v", branches)
	}
}
