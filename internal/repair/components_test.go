package repair

import (
	"math/rand"
	"testing"

	"bigdansing/internal/graph"
	"bigdansing/internal/model"
)

// TestFixSetComponentsMinRootContract pins what RepairParallel's grouping
// relies on: two fix sets share a component exactly when a chain of shared
// cells links them, and the component's ID is its smallest fix-set index —
// at every parallelism, since the union phase races.
func TestFixSetComponentsMinRootContract(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		fixSets := make([]model.FixSet, 1+r.Intn(60))
		oracle := graph.NewUnionFind()
		firstWith := map[model.CellKey]int64{}
		for i := range fixSets {
			a := model.NewCell(int64(r.Intn(25)), 2, model.S("a"))
			b := model.NewCell(int64(r.Intn(25)), 2, model.S("b"))
			fixSets[i] = model.FixSet{
				Violation: model.NewViolation("fd", a, b),
				Fixes:     []model.Fix{model.NewCellFix(a, model.OpEQ, b)},
			}
			oracle.Add(int64(i))
			for _, c := range []model.Cell{a, b} {
				if first, ok := firstWith[c.MapKey()]; ok {
					oracle.Union(first, int64(i))
				} else {
					firstWith[c.MapKey()] = int64(i)
				}
			}
		}
		want := oracle.Components()
		for _, parallelism := range []int{1, 4} {
			got, _ := fixSetComponents(fixSets, parallelism)
			for i := range fixSets {
				if got[i] != want[int64(i)] {
					t.Fatalf("seed %d, parallelism %d: fix set %d in component %d, want %d",
						seed, parallelism, i, got[i], want[int64(i)])
				}
			}
		}
	}
}
