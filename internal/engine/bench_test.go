package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"bigdansing/internal/model"
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
	// The Block shape of FD detection: 100 000 tuples grouped by the
	// ValueKey of one cell, the key computed where the tuples lie.
	tuples := benchTuples(100000, 7)
	b.Run("tuples-100000-valuekey", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d := Parallelize(ctx, tuples, 0)
			if _, err := GroupBy(d, func(t model.Tuple) model.ValueKey { return t.Cell(1).MapKey() }).Count(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchTuples draws n three-cell tuples whose second cell (the grouping
// key) takes about n/20 distinct string values.
func benchTuples(n int, seed int64) []model.Tuple {
	r := rand.New(rand.NewSource(seed))
	out := make([]model.Tuple, n)
	for i := range out {
		out[i] = model.NewTuple(int64(i), model.I(int64(i)), model.S(fmt.Sprintf("z%d", r.Intn(n/20+1))), model.F(r.Float64()))
	}
	return out
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
