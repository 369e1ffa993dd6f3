package engine

import (
	"runtime"
	"testing"
)

// Out-of-core benchmarks: each wide operator measured in-memory (no
// budget), under a generous budget (buffering regime, nothing spills — the
// overhead floor of the budget accounting), and under a budget far below
// the working set (full spill + merge). The in-memory cases double as
// guards that the spill machinery stays off the unbudgeted fast path.

func spillBenchCtx(b *testing.B, budget int64) *Context {
	b.Helper()
	return mustContext(b, Config{
		Parallelism:       4,
		MemoryBudgetBytes: budget,
		SpillDir:          b.TempDir(),
	})
}

func BenchmarkGroupByKeySpill(b *testing.B) {
	data := benchData(100000, 7)
	for _, c := range []struct {
		name   string
		budget int64
	}{
		{"inmem", 0},
		{"budget-generous", 1 << 30},
		{"budget-256K", 256 << 10},
	} {
		b.Run(c.name, func(b *testing.B) {
			ctx := spillBenchCtx(b, c.budget)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := Parallelize(ctx, data, 0)
				if _, err := GroupByKey(d).Count(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*len(data)), "allocs/record")
			reportSpill(b, ctx, c.budget)
		})
	}
}

func BenchmarkReduceByKeySpill(b *testing.B) {
	data := benchData(100000, 8)
	sum := func(a, b int) int { return a + b }
	for _, c := range []struct {
		name   string
		budget int64
	}{
		{"inmem", 0},
		{"budget-256K", 256 << 10},
	} {
		b.Run(c.name, func(b *testing.B) {
			ctx := spillBenchCtx(b, c.budget)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := Parallelize(ctx, data, 0)
				if _, err := ReduceByKey(d, sum).Count(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportSpill(b, ctx, c.budget)
		})
	}
}

// reportSpill surfaces the spill counters as custom benchmark metrics and
// sanity-checks the regime: budgeted runs must stay under budget, and
// unbudgeted runs must not have spilled at all.
func reportSpill(b *testing.B, ctx *Context, budget int64) {
	b.Helper()
	sn := ctx.Stats().Snapshot()
	n := int64(b.N)
	if n == 0 {
		n = 1
	}
	b.ReportMetric(float64(sn.BytesSpilled/n), "spillB/op")
	b.ReportMetric(float64(sn.SpillRuns/n), "runs/op")
	if budget == 0 && (sn.BytesSpilled != 0 || sn.PeakReservedBytes != 0) {
		b.Fatalf("unbudgeted run touched the spill path: %+v", sn)
	}
	if budget > 0 && sn.PeakReservedBytes > budget {
		b.Fatalf("peak reserved %d exceeds budget %d", sn.PeakReservedBytes, budget)
	}
}
