package repair

import (
	"testing"

	"bigdansing/internal/model"
)

// blockList is Blocks over fix sets laid out by hand.
type blockList [][]model.FixSet

func (b blockList) NumBlocks() int { return len(b) }

func (b blockList) AppendBlock(dst []model.FixSet, i int) []model.FixSet {
	return append(dst, b[i]...)
}

// keepComponents is a repair algorithm that keeps every component slice it
// is handed, which RepairBlocks forbids, and proposes nothing.
type keepComponents struct{ comps [][]model.FixSet }

func (k *keepComponents) Name() string { return "keep-components" }

func (k *keepComponents) Repair(c []model.FixSet) ([]Assignment, error) {
	k.comps = append(k.comps, c)
	return nil, nil
}

// TestRepairBlocksPoisonsKeptComponents checks that a race build poisons
// each pooled component buffer once its instance returns: an algorithm that
// keeps its component reads poisoned fix sets afterwards, not the ones it
// was handed. The blocks include one that splits into two components, so
// both the block buffer and the component buffer are checked.
func TestRepairBlocksPoisonsKeptComponents(t *testing.T) {
	if !raceEnabled {
		t.Skip("component buffers are poisoned in race builds only")
	}
	blocks := blockList{
		{fdFixSet("fd", 1, 2, "A", "B"), fdFixSet("fd", 1, 3, "A", "C")},
		{fdFixSet("fd", 4, 5, "A", "B"), fdFixSet("fd", 6, 7, "C", "D")},
	}
	algo := &keepComponents{}
	_, rep, err := RepairBlocks(blocks, func(model.FixSet) bool { return true }, algo, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Components != 3 || len(algo.comps) != 3 {
		t.Fatalf("%d components reported, %d handed over; want 3", rep.Components, len(algo.comps))
	}
	for i, c := range algo.comps {
		for _, fs := range c {
			if fs.Violation.RuleID != poisonedRule {
				t.Errorf("component %d still reads %v after its instance returned", i, fs.Violation)
			}
		}
	}
}
