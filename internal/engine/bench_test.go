package engine

import (
	"fmt"
	"math/rand"
	"testing"
)

// Substrate micro-benchmarks: the narrow/wide transformation costs that
// every detection plan is built from.

func benchData(n int, seed int64) []Pair[string, int] {
	r := rand.New(rand.NewSource(seed))
	out := make([]Pair[string, int], n)
	for i := range out {
		out[i] = KV(fmt.Sprintf("k%d", r.Intn(n/20+1)), i)
	}
	return out
}

func BenchmarkGroupByKey(b *testing.B) {
	ctx := New(4)
	for _, n := range []int{10000, 100000} {
		data := benchData(n, int64(n))
		b.Run(fmt.Sprintf("rows-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d := Parallelize(ctx, data, 0)
				if _, err := GroupByKey(d).Count(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkReduceByKey(b *testing.B) {
	ctx := New(4)
	data := benchData(100000, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := Parallelize(ctx, data, 0)
		out := ReduceByKey(d, func(a, b int) int { return a + b })
		if _, err := out.Count(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSortBy(b *testing.B) {
	ctx := New(4)
	r := rand.New(rand.NewSource(9))
	data := make([]int, 100000)
	for i := range data {
		data[i] = r.Intn(1 << 20)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := Parallelize(ctx, data, 0)
		out := SortBy(d, func(a, b int) bool { return a < b }, 8)
		if _, err := out.Count(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMapFilterPipeline(b *testing.B) {
	ctx := New(4)
	data := make([]int, 200000)
	for i := range data {
		data[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := Parallelize(ctx, data, 0)
		out := Filter(Map(d, func(v int) int { return v * 3 }), func(v int) bool { return v%2 == 0 })
		if _, err := out.Count(); err != nil {
			b.Fatal(err)
		}
	}
}
