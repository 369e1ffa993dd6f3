package engine

import "testing"

// failing builds a dataset whose first transformation panics.
func failing(ctx *Context) *Dataset[int] {
	d := Parallelize(ctx, ints(10), 2)
	return Map(d, func(i int) int { panic("wide boom") })
}

func TestErrorPropagatesThroughWideOps(t *testing.T) {
	ctx := New(2)

	kv := Map(failing(ctx), func(i int) Pair[string, int] { return KV("k", i) })
	if GroupByKey(kv).Err() == nil {
		t.Error("GroupByKey should propagate")
	}
	if ReduceByKey(kv, func(a, b int) int { return a + b }).Err() == nil {
		t.Error("ReduceByKey should propagate")
	}
	good := Parallelize(ctx, []Pair[string, int]{KV("k", 1)}, 1)
	key := pairKey[string, int]
	if CoGroupBy(kv, good, key, key).Err() == nil {
		t.Error("CoGroupBy should propagate from left")
	}
	if CoGroupBy(good, kv, key, key).Err() == nil {
		t.Error("CoGroupBy should propagate from right")
	}
	if GroupBy(failing(ctx), func(i int) int { return i }).Err() == nil {
		t.Error("GroupBy should propagate")
	}
	// At parallelism 1 every key is grouped in one task.
	one := New(1)
	kv1 := Map(failing(one), func(i int) Pair[string, int] { return KV("k", i) })
	good1 := Parallelize(one, []Pair[string, int]{KV("k", 1)}, 1)
	if GroupByKey(kv1).Err() == nil {
		t.Error("GroupByKey at parallelism 1 should propagate")
	}
	if CoGroupBy(good1, kv1, key, key).Err() == nil {
		t.Error("CoGroupBy at parallelism 1 should propagate")
	}
}

func TestErrorPropagatesThroughSortAndCartesian(t *testing.T) {
	ctx := New(2)
	bad := failing(ctx)
	if RangePartitionBy(bad, func(a, b int) bool { return a < b }, 2).Err() == nil {
		t.Error("RangePartitionBy should propagate")
	}
	good := Parallelize(ctx, ints(3), 1)
	if Cartesian(bad, good).Err() == nil {
		t.Error("Cartesian should propagate from left")
	}
	if Cartesian(good, bad).Err() == nil {
		t.Error("Cartesian should propagate from right")
	}
	if SelfCartesian(bad).Err() == nil {
		t.Error("SelfCartesian should propagate")
	}
	if SelfCartesianUnique(bad).Err() == nil {
		t.Error("SelfCartesianUnique should propagate")
	}
}

func TestMapPartitions(t *testing.T) {
	ctx := New(4)
	d := Parallelize(ctx, ints(20), 4)
	sums := MapPartitions(d, func(part int, in []int) []int {
		total := 0
		for _, v := range in {
			total += v
		}
		return []int{total}
	})
	got, err := sums.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("one output per partition: %v", got)
	}
	all := 0
	for _, v := range got {
		all += v
	}
	if all != 190 {
		t.Errorf("sum = %d", all)
	}
}

func TestGroupByKeyIntegerKeys(t *testing.T) {
	ctx := New(4)
	var pairs []Pair[int64, int]
	for i := 0; i < 1000; i++ {
		pairs = append(pairs, KV(int64(i%13), i))
	}
	groups, err := GroupByKey(Parallelize(ctx, pairs, 8)).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 13 {
		t.Fatalf("groups = %d", len(groups))
	}
	total := 0
	for _, g := range groups {
		total += len(g.Value)
	}
	if total != 1000 {
		t.Errorf("grouped values = %d", total)
	}
}
