package repair

import (
	"sync"
	"testing"

	"bigdansing/internal/model"
)

// TestClassMemoryBiasesTarget: with two values tied in frequency, the
// remembered value from a previous flush must win; without memory the tie
// breaks lexicographically.
func TestClassMemoryBiasesTarget(t *testing.T) {
	// Two cells, values "Zed" and "Alpha": tied 1-1, the plain algorithm
	// picks "Alpha" (smaller rendered value).
	comp := []model.FixSet{fdFixSet("phi", 1, 2, "Zed", "Alpha")}
	plain := &EquivalenceClass{}
	as, err := plain.Repair(comp)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 1 || as[0].Value.String() != "Alpha" {
		t.Fatalf("plain tie-break: %v", as)
	}

	// A memory that drove cell (1, city) to "Zed" earlier flips the vote.
	mem := NewClassMemory()
	mem.Record([]Assignment{{TupleID: 1, Col: 2, Value: model.S("Zed")}}, nil)
	sticky := &EquivalenceClass{Prior: mem}
	as, err = sticky.Repair(comp)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 1 || as[0].Value.String() != "Zed" {
		t.Fatalf("memory should bias the class to Zed: %v", as)
	}
	if as[0].TupleID != 2 {
		t.Fatalf("the Alpha cell should be repaired, got tuple %d", as[0].TupleID)
	}
}

// TestClassMemorySkipsFrozen: assignments on frozen cells are not
// remembered — a pinned cell must not keep campaigning for its value.
func TestClassMemorySkipsFrozen(t *testing.T) {
	mem := NewClassMemory()
	frozen := map[model.CellKey]bool{{TupleID: 7, Col: 2}: true}
	mem.Record([]Assignment{
		{TupleID: 7, Col: 2, Value: model.S("X")},
		{TupleID: 8, Col: 2, Value: model.S("Y")},
	}, frozen)
	if _, ok := mem.Prefer(model.CellKey{TupleID: 7, Col: 2}); ok {
		t.Error("frozen cell remembered")
	}
	if v, ok := mem.Prefer(model.CellKey{TupleID: 8, Col: 2}); !ok || v.String() != "Y" {
		t.Errorf("unfrozen cell forgotten: %v %v", v, ok)
	}
	if mem.Len() != 1 {
		t.Errorf("Len = %d", mem.Len())
	}
	mem.Forget(model.CellKey{TupleID: 8, Col: 2})
	if mem.Len() != 0 {
		t.Errorf("Forget left %d entries", mem.Len())
	}
}

// TestClassMemoryConcurrent: Prefer is called from one goroutine per repair
// component while Record runs between rounds; the memory must be race-free.
func TestClassMemoryConcurrent(t *testing.T) {
	mem := NewClassMemory()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := int64(w*200 + i)
				mem.Record([]Assignment{{TupleID: id, Col: 1, Value: model.I(id)}}, nil)
				mem.Prefer(model.CellKey{TupleID: id, Col: 1})
			}
		}(w)
	}
	wg.Wait()
	if mem.Len() != 1600 {
		t.Errorf("Len = %d, want 1600", mem.Len())
	}
}
