package cleanse

import (
	"testing"

	"bigdansing/internal/core"
	"bigdansing/internal/datagen"
	"bigdansing/internal/engine"
	"bigdansing/internal/model"
)

// changedTuples lists the positions whose cells differ between two
// relations of the same tuples.
func changedTuples(a, b *model.Relation) []int {
	var out []int
	for i, t := range a.Tuples {
		for c := range t.Cells {
			if !t.Cells[c].Equal(b.Tuples[i].Cells[c]) {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// TestCleanBorrowsInput checks Clean's ownership contract: it never writes
// its input's cells, and a repaired tuple of Result.Clean has cells of its
// own, so writing into it leaves the input as it was.
func TestCleanBorrowsInput(t *testing.T) {
	rel := datagen.TaxA(600, 0.1, 3).Dirty
	snapshot := rel.Clone()
	cleaner := mustCleaner(t, engine.New(2), []*core.Rule{fdZipCity(t, rel)})
	res, err := cleaner.Clean(rel)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRelation(t, rel, snapshot)
	repaired := changedTuples(res.Clean, rel)
	if len(repaired) == 0 || res.Report().UpdatesApplied == 0 {
		t.Fatal("the dirty relation should need repairs")
	}
	for _, i := range repaired {
		cells := res.Clean.Tuples[i].Cells
		for c := range cells {
			cells[c] = model.S("overwritten")
		}
	}
	assertSameRelation(t, rel, snapshot)
}

// TestSessionBorrowsIngestedBatch checks Ingest's ownership contract: a
// session that repairs an ingested batch never writes the caller's cells,
// while Session.Relation shows the repairs, the same ones a Clean of the
// same tuples makes.
func TestSessionBorrowsIngestedBatch(t *testing.T) {
	rel := datagen.TaxA(600, 0.1, 5).Dirty
	snapshot := rel.Clone()
	rule := fdZipCity(t, rel)

	sess, err := mustCleaner(t, engine.New(2), []*core.Rule{rule}).Open(rel.Schema)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	half := rel.Len() / 2
	for _, batch := range [][]model.Tuple{rel.Tuples[:half], rel.Tuples[half:]} {
		if err := sess.Ingest(batch); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := sess.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if rep.UpdatesApplied == 0 {
		t.Fatal("the dirty relation should need repairs")
	}
	assertSameRelation(t, rel, snapshot)
	got := sess.Relation()
	if len(changedTuples(got, rel)) == 0 {
		t.Fatal("Session.Relation shows no repairs")
	}

	want, err := mustCleaner(t, engine.New(2), []*core.Rule{rule}).Clean(snapshot)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRelation(t, got, want.Clean)
}
