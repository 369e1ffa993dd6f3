package engine

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestRangePartitionProperties(t *testing.T) {
	ctx := New(4)
	f := func(raw []int16, partsRaw uint8) bool {
		data := make([]int, len(raw))
		for i, v := range raw {
			data[i] = int(v)
		}
		n := int(partsRaw%7) + 1
		d := RangePartitionBy(Parallelize(ctx, data, 4), func(a, b int) bool { return a < b }, n)
		// Property 1: no element lost or invented.
		got, err := d.Collect()
		if err != nil {
			return false
		}
		sort.Ints(got)
		want := append([]int(nil), data...)
		sort.Ints(want)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		// Property 2: partition i's max <= partition i+1's min.
		prevMax := 0
		prevSet := false
		for p := 0; p < d.NumPartitions(); p++ {
			part := d.Partition(p)
			if len(part) == 0 {
				continue
			}
			mn, mx := part[0], part[0]
			for _, v := range part {
				if v < mn {
					mn = v
				}
				if v > mx {
					mx = v
				}
			}
			if prevSet && mn < prevMax {
				return false
			}
			prevMax = mx
			prevSet = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRangePartitionSinglePartition(t *testing.T) {
	ctx := New(2)
	d := RangePartitionBy(Parallelize(ctx, []int{3, 1, 2}, 2), func(a, b int) bool { return a < b }, 1)
	if d.NumPartitions() != 1 {
		t.Fatalf("partitions = %d, want 1", d.NumPartitions())
	}
	if got := d.Partition(0); len(got) != 3 || got[0] != 3 || got[1] != 1 || got[2] != 2 {
		t.Errorf("partition 0 = %v, want [3 1 2] in arrival order", got)
	}
}

func TestRangePartitionEmpty(t *testing.T) {
	ctx := New(2)
	d := RangePartitionBy(Parallelize(ctx, []int{}, 0), func(a, b int) bool { return a < b }, 3)
	if n, _ := d.Count(); n != 0 {
		t.Error("empty range partition")
	}
	if d.NumPartitions() != 3 {
		t.Errorf("partitions = %d, want 3", d.NumPartitions())
	}
}

func TestCartesian(t *testing.T) {
	ctx := New(4)
	a := Parallelize(ctx, []int{1, 2, 3}, 2)
	b := Parallelize(ctx, []string{"x", "y"}, 2)
	got, err := Cartesian(a, b).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("cartesian size = %d", len(got))
	}
}

func TestSelfCartesianCounts(t *testing.T) {
	ctx := New(4)
	f := func(nRaw uint8) bool {
		n := int(nRaw%20) + 1
		d := Parallelize(ctx, ints(n), 3)
		full, err := SelfCartesian(d).Count()
		if err != nil {
			return false
		}
		uniq, err := SelfCartesianUnique(d).Count()
		if err != nil {
			return false
		}
		return full == n*(n-1) && uniq == n*(n-1)/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSelfCartesianUniquePairsAreUnique(t *testing.T) {
	ctx := New(4)
	d := Parallelize(ctx, ints(15), 4)
	pairs, err := SelfCartesianUnique(d).Collect()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]int]bool{}
	for _, p := range pairs {
		if p.Left == p.Right {
			t.Fatalf("self pair %v", p)
		}
		k := [2]int{p.Left, p.Right}
		if p.Left > p.Right {
			k = [2]int{p.Right, p.Left}
		}
		if seen[k] {
			t.Fatalf("duplicate pair %v", k)
		}
		seen[k] = true
	}
}
