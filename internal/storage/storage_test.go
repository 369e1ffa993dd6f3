package storage

import (
	"fmt"
	"testing"

	"bigdansing/internal/model"
)

func sampleRel(n int) *model.Relation {
	s := model.MustParseSchema("name,zipcode:int,city,salary:float")
	rel := model.NewRelation("tax", s)
	for i := 0; i < n; i++ {
		rel.Append(model.NewTuple(int64(i),
			model.S(fmt.Sprintf("P%d", i)),
			model.I(int64(10000+i%7)),
			model.S(fmt.Sprintf("City%d", i%7)),
			model.F(float64(i)*100),
		))
	}
	return rel
}

func TestUploadReadRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rel := sampleRel(50)
	plan, err := st.Upload(rel, "", 4)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Rows != 50 || plan.Partitions != 4 {
		t.Errorf("plan = %+v", plan)
	}
	got, err := st.Read("tax", "", ReadOptions{Partition: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 50 {
		t.Fatalf("rows = %d", got.Len())
	}
	byID := map[int64]model.Tuple{}
	for _, tp := range got.Tuples {
		byID[tp.ID] = tp
	}
	for _, want := range rel.Tuples {
		tp, ok := byID[want.ID]
		if !ok {
			t.Fatalf("tuple %d missing", want.ID)
		}
		for c := range want.Cells {
			if !tp.Cell(c).Equal(want.Cell(c)) {
				t.Errorf("tuple %d col %d: %v vs %v", want.ID, c, tp.Cell(c), want.Cell(c))
			}
		}
	}
}

func TestScopePushdownReadsOnlyColumns(t *testing.T) {
	st, _ := Open(t.TempDir())
	rel := sampleRel(20)
	if _, err := st.Upload(rel, "", 2); err != nil {
		t.Fatal(err)
	}
	got, err := st.Read("tax", "", ReadOptions{Columns: []string{"zipcode", "city"}, Partition: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema.Len() != 2 {
		t.Fatalf("projected schema = %s", got.Schema)
	}
	if got.Schema.Name(0) != "zipcode" || got.Schema.Name(1) != "city" {
		t.Errorf("projected names = %v", got.Schema.Names())
	}
	for _, tp := range got.Tuples {
		if len(tp.Cells) != 2 {
			t.Fatalf("tuple width = %d", len(tp.Cells))
		}
	}
}

func TestBlockPushdownReadsOnePartition(t *testing.T) {
	st, _ := Open(t.TempDir())
	rel := sampleRel(70)
	if _, err := st.Upload(rel, "zipcode", 5); err != nil {
		t.Fatal(err)
	}
	key := model.I(10003)
	got, err := st.Read("tax", "zipcode", ReadOptions{BlockKey: &key, Partition: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Every tuple with zipcode 10003 must be present; the partition may
	// contain other keys that hash alike, but never miss the block.
	want := 0
	for _, tp := range rel.Tuples {
		if tp.Cell(1) == model.I(10003) {
			want++
		}
	}
	found := 0
	for _, tp := range got.Tuples {
		if tp.Cell(1) == model.I(10003) {
			found++
		}
	}
	if found != want {
		t.Errorf("block read found %d/%d tuples of the block", found, want)
	}
	if got.Len() >= rel.Len() {
		t.Errorf("block pushdown should read less than the full dataset (%d vs %d)", got.Len(), rel.Len())
	}
}

func TestBlockPushdownRequiresContentPartitioning(t *testing.T) {
	st, _ := Open(t.TempDir())
	rel := sampleRel(10)
	st.Upload(rel, "", 2)
	bk := model.S("x")
	if _, err := st.Read("tax", "", ReadOptions{BlockKey: &bk, Partition: -1}); err == nil {
		t.Error("block pushdown on round-robin replica should fail")
	}
}

func TestHeterogeneousReplicas(t *testing.T) {
	st, _ := Open(t.TempDir())
	rel := sampleRel(30)
	if _, err := st.Upload(rel, "zipcode", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Upload(rel, "city", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Upload(rel, "", 3); err != nil {
		t.Fatal(err)
	}
	reps, err := st.Replicas("tax")
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 3 {
		t.Fatalf("replicas = %v", reps)
	}
	// All replicas carry the same data.
	for _, attr := range []string{"zipcode", "city", ""} {
		got, err := st.Read("tax", attr, ReadOptions{Partition: -1})
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != 30 {
			t.Errorf("replica %q rows = %d", attr, got.Len())
		}
	}
}

func TestPartitionedReadByIndex(t *testing.T) {
	st, _ := Open(t.TempDir())
	rel := sampleRel(40)
	st.Upload(rel, "zipcode", 4)
	total := 0
	seen := map[int64]bool{}
	for p := 0; p < 4; p++ {
		got, err := st.Read("tax", "zipcode", ReadOptions{Partition: p})
		if err != nil {
			t.Fatal(err)
		}
		total += got.Len()
		for _, tp := range got.Tuples {
			if seen[tp.ID] {
				t.Fatalf("tuple %d in two partitions", tp.ID)
			}
			seen[tp.ID] = true
		}
	}
	if total != 40 {
		t.Errorf("partition union = %d rows", total)
	}
	if _, err := st.Read("tax", "zipcode", ReadOptions{Partition: 9}); err == nil {
		t.Error("out of range partition should fail")
	}
}

func TestContentPartitioningCoLocatesBlocks(t *testing.T) {
	// All tuples sharing a zipcode land in the same partition: the Block
	// operator pushed down to the storage layer.
	st, _ := Open(t.TempDir())
	rel := sampleRel(100)
	st.Upload(rel, "zipcode", 4)
	partOf := map[string]int{}
	for p := 0; p < 4; p++ {
		got, err := st.Read("tax", "zipcode", ReadOptions{Partition: p})
		if err != nil {
			t.Fatal(err)
		}
		for _, tp := range got.Tuples {
			key := tp.Cell(1).Key()
			if prev, ok := partOf[key]; ok && prev != p {
				t.Fatalf("zipcode %s split across partitions %d and %d", key, prev, p)
			}
			partOf[key] = p
		}
	}
}

func TestUnknownDatasetAndColumn(t *testing.T) {
	st, _ := Open(t.TempDir())
	if _, err := st.Read("ghost", "", ReadOptions{Partition: -1}); err == nil {
		t.Error("unknown dataset should fail")
	}
	rel := sampleRel(5)
	st.Upload(rel, "", 1)
	if _, err := st.Read("tax", "", ReadOptions{Columns: []string{"ghost"}, Partition: -1}); err == nil {
		t.Error("unknown column should fail")
	}
	if _, err := st.Upload(rel, "ghost", 2); err == nil {
		t.Error("unknown partition attribute should fail")
	}
}
