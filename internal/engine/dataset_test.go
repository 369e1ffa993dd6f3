package engine

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func ints(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestParallelizePartitioning(t *testing.T) {
	ctx := New(4)
	d := Parallelize(ctx, ints(10), 3)
	if d.NumPartitions() != 3 {
		t.Fatalf("parts = %d", d.NumPartitions())
	}
	got, err := d.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("collected %d", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order not preserved: %v", got)
		}
	}
}

func TestParallelizeEmptyAndOversized(t *testing.T) {
	ctx := New(4)
	d := Parallelize(ctx, []int{}, 8)
	if n, _ := d.Count(); n != 0 {
		t.Error("empty count")
	}
	d2 := Parallelize(ctx, []int{1, 2}, 8)
	if d2.NumPartitions() > 2 {
		t.Errorf("should not create more partitions than elements, got %d", d2.NumPartitions())
	}
}

func TestMapFilterFlatMap(t *testing.T) {
	ctx := New(4)
	d := Parallelize(ctx, ints(100), 0)
	doubled := Map(d, func(i int) int { return i * 2 })
	evens := Filter(doubled, func(i int) bool { return i%4 == 0 })
	expanded := FlatMap(evens, func(i int) []int { return []int{i, i + 1} })
	got, err := expanded.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("len = %d, want 100", len(got))
	}
}

func TestMapPanicBecomesError(t *testing.T) {
	ctx := New(2)
	d := Parallelize(ctx, ints(10), 2)
	bad := Map(d, func(i int) int {
		if i == 7 {
			panic("injected failure")
		}
		return i
	})
	if bad.Err() == nil {
		t.Fatal("panic should surface as sticky error")
	}
	if !strings.Contains(bad.Err().Error(), "injected failure") {
		t.Errorf("error should carry panic value: %v", bad.Err())
	}
	// Error propagates through further transformations and actions.
	next := Filter(bad, func(int) bool { return true })
	if _, err := next.Collect(); err == nil {
		t.Error("error should propagate to actions")
	}
	if _, err := next.Count(); err == nil {
		t.Error("error should propagate to Count")
	}
}

func TestGroupByKey(t *testing.T) {
	ctx := New(4)
	data := []Pair[string, int]{
		KV("a", 1), KV("b", 2), KV("a", 3), KV("c", 4), KV("b", 5),
	}
	d := Parallelize(ctx, data, 3)
	grouped, err := GroupByKey(d).Collect()
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string][]int{}
	for _, g := range grouped {
		byKey[g.Key] = g.Value
	}
	if len(byKey) != 3 {
		t.Fatalf("groups = %v", byKey)
	}
	sort.Ints(byKey["a"])
	if byKey["a"][0] != 1 || byKey["a"][1] != 3 {
		t.Errorf("group a = %v", byKey["a"])
	}
}

func TestReduceByKeyMatchesGroupReduce(t *testing.T) {
	ctx := New(4)
	f := func(keys []uint8, vals []int8) bool {
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		pairs := make([]Pair[string, int], n)
		for i := 0; i < n; i++ {
			pairs[i] = KV(string(rune('a'+keys[i]%5)), int(vals[i]))
		}
		d := Parallelize(ctx, pairs, 4)
		red, err := ReduceByKey(d, func(a, b int) int { return a + b }).Collect()
		if err != nil {
			return false
		}
		want := map[string]int{}
		for _, p := range pairs {
			want[p.Key] += p.Value
		}
		if len(red) != len(want) {
			return false
		}
		for _, p := range red {
			if want[p.Key] != p.Value {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCoGroup(t *testing.T) {
	ctx := New(4)
	lrecs := []Pair[string, int]{KV("x", 1), KV("y", 2), KV("x", 3)}
	rrecs := []Pair[string, string]{KV("x", "a"), KV("z", "b")}
	left, right := Parallelize(ctx, lrecs, 2), Parallelize(ctx, rrecs, 2)
	lk, rk := pairKey[string, int], pairKey[string, string]
	cg, err := CoGroupBy(left, right, lk, rk).Collect()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]CoGrouped[Pair[string, int], Pair[string, string]]{}
	for _, g := range cg {
		seen[g.Key] = g.Value
	}
	if len(seen["x"].Left) != 2 || len(seen["x"].Right) != 1 {
		t.Errorf("cogroup x = %+v", seen["x"])
	}
	if len(seen["z"].Left) != 0 || len(seen["z"].Right) != 1 {
		t.Errorf("cogroup z = %+v", seen["z"])
	}

	// At parallelism 1, one destination partition: every key in one task,
	// left keys first in first-seen order, then right-only keys.
	ctx1 := New(1)
	one := CoGroupBy(Parallelize(ctx1, lrecs, 2), Parallelize(ctx1, rrecs, 2), lk, rk)
	if one.NumPartitions() != 1 {
		t.Fatalf("CoGroupBy at parallelism 1: partitions = %d", one.NumPartitions())
	}
	var keys []string
	for _, g := range one.Partition(0) {
		keys = append(keys, g.Key)
	}
	if strings.Join(keys, ",") != "x,y,z" {
		t.Errorf("CoGroupBy at parallelism 1: key order = %v, want x,y,z", keys)
	}
}

func TestGroupByKeyNOnePartition(t *testing.T) {
	ctx := New(1)
	data := []Pair[string, int]{KV("b", 1), KV("a", 2), KV("b", 3), KV("c", 4), KV("a", 5)}
	g := GroupByKey(Parallelize(ctx, data, 3))
	if g.NumPartitions() != 1 {
		t.Fatalf("partitions = %d, want 1", g.NumPartitions())
	}
	got := fmt.Sprint(g.Partition(0))
	if want := "[{b [1 3]} {a [2 5]} {c [4]}]"; got != want {
		t.Errorf("one-partition groups = %s, want %s (first-seen order)", got, want)
	}
}

func TestGroupByKeyNGroupsDoNotAlias(t *testing.T) {
	ctx := New(1)
	data := []Pair[string, int]{KV("b", 1), KV("a", 2), KV("b", 3), KV("c", 4), KV("a", 5)}
	groups := GroupByKey(Parallelize(ctx, data, 3)).Partition(0)
	for i := 0; i+1 < len(groups); i++ {
		next := fmt.Sprint(groups[i+1].Value)
		_ = append(groups[i].Value, -1)
		if got := fmt.Sprint(groups[i+1].Value); got != next {
			t.Fatalf("appending to group %q changed group %q: %s, was %s", groups[i].Key, groups[i+1].Key, got, next)
		}
	}
}

func TestDistinct(t *testing.T) {
	ctx := New(4)
	d := Parallelize(ctx, []int{1, 2, 2, 3, 3, 3}, 3)
	got, err := Distinct(d, func(i int) int { return i }).Collect()
	if err != nil {
		t.Fatal(err)
	}
	sort.Ints(got)
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("distinct = %v", got)
	}
}

func TestStatsCounters(t *testing.T) {
	ctx := New(4)
	ctx.Stats().Reset()
	d := Parallelize(ctx, ints(100), 4)
	if ctx.Stats().Snapshot().RecordsRead != 100 {
		t.Errorf("records read = %d", ctx.Stats().Snapshot().RecordsRead)
	}
	if _, err := GroupByKey(Map(d, func(i int) Pair[int, int] { return KV(i%3, i) })).Collect(); err != nil {
		t.Fatal(err)
	}
	if ctx.Stats().Snapshot().RecordsShuffled == 0 {
		t.Error("group by should shuffle")
	}
	if ctx.Stats().Snapshot().Stages == 0 || ctx.Stats().Snapshot().Tasks == 0 {
		t.Error("stage/task counters should advance")
	}
}
