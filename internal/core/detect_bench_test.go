package core_test

import (
	"runtime"
	"testing"

	"bigdansing/internal/core"
	"bigdansing/internal/datagen"
	"bigdansing/internal/engine"
	"bigdansing/internal/mapred"
	"bigdansing/internal/model"
	"bigdansing/internal/rules"
)

// BenchmarkDetectFD runs the tpch_fd_detect workload's shape through
// DetectRule: φ3 (o_custkey -> c_address) over 100 000 TPC-H rows at 10 %
// errors, on the local backend at parallelism 2. Besides the per-op
// allocation it reports the bytes allocated per violation found — the size
// of the detect→repair record plus its share of grouping and dedup.
func BenchmarkDetectFD(b *testing.B) {
	rule, rel := phi3TPCH(b)
	ctx := engine.New(2)
	var before, after runtime.MemStats
	violations := 0
	b.ReportAllocs()
	b.ResetTimer()
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		res, err := core.DetectRule(ctx, rule, rel)
		if err != nil {
			b.Fatal(err)
		}
		violations += len(res.Violations)
	}
	runtime.ReadMemStats(&after)
	if violations > 0 {
		b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(violations), "B/violation")
	}
}

// phi3TPCH is the input of the tpch_fd_detect workloads: φ3
// (o_custkey -> c_address) and 100 000 TPC-H rows at 10 % errors, seed 1.
func phi3TPCH(b *testing.B) (*core.Rule, *model.Relation) {
	fd, err := rules.ParseFD("phi3", "o_custkey -> c_address")
	if err != nil {
		b.Fatal(err)
	}
	rule, err := fd.Compile(datagen.TPCHSchema())
	if err != nil {
		b.Fatal(err)
	}
	return rule, datagen.TPCH(100000, 0.10, 1).Dirty
}

// BenchmarkDetectFDDisk runs the tpch_fd_detect_mapred workload's shape: φ3
// over the disk exchange, mapred.New("", 2) and DetectRuleMapReduce at 4
// reducers. Besides the per-op allocation it reports the run-file bytes
// written per input row, the bytes every moved tuple costs on disk.
func BenchmarkDetectFDDisk(b *testing.B) {
	rule, rel := phi3TPCH(b)
	eng, err := mapred.New("", 2)
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DetectRuleMapReduce(eng, rule, rel, 4, 4); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(eng.Stats().BytesSpilled())/float64(b.N*rel.Len()), "B-moved/row")
}

// BenchmarkDetectFDSpill runs the tpch_fd_detect_spill workload's shape: φ3
// through DetectRule at parallelism 2 under a memory budget of 42 bytes per
// input row, which makes the grouping sort-spill-merge. Besides the per-op
// allocation it reports the spilled bytes per input row.
func BenchmarkDetectFDSpill(b *testing.B) {
	rule, rel := phi3TPCH(b)
	ctx, err := engine.NewContext(engine.Config{
		Parallelism:       2,
		MemoryBudgetBytes: 42 * int64(rel.Len()),
		SpillDir:          b.TempDir(),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DetectRule(ctx, rule, rel); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	spilled := ctx.Stats().Snapshot().BytesSpilled
	if spilled == 0 {
		b.Fatal("the budget spilled nothing")
	}
	b.ReportMetric(float64(spilled)/float64(b.N*rel.Len()), "B-moved/row")
}

// phi2TaxB is the input of the taxb_dc_clean workload's detection: φ2
// (t1.salary > t2.salary & t1.rate < t2.rate), which plans to OCJoin, and
// rows TaxB rows at 5 % errors, seed 11.
func phi2TaxB(tb testing.TB, rows int) (*core.Rule, *model.Relation) {
	tb.Helper()
	dc, err := rules.ParseDC("phi2", "t1.salary > t2.salary & t1.rate < t2.rate")
	if err != nil {
		tb.Fatal(err)
	}
	rule, err := dc.Compile(datagen.TaxSchema())
	if err != nil {
		tb.Fatal(err)
	}
	return rule, datagen.TaxB(rows, 0.05, 11).Dirty
}

// BenchmarkDetectDC runs the taxb_dc_clean workload's detection shape
// through DetectRule: φ2 over 1 400 TaxB rows on the local backend at
// parallelism 2, where the OCJoin sweep hands each pair to Detect. Besides
// the per-op allocation it reports the bytes allocated per violation found.
func BenchmarkDetectDC(b *testing.B) {
	rule, rel := phi2TaxB(b, 1400)
	ctx := engine.New(2)
	var before, after runtime.MemStats
	violations := 0
	b.ReportAllocs()
	b.ResetTimer()
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		res, err := core.DetectRule(ctx, rule, rel)
		if err != nil {
			b.Fatal(err)
		}
		violations += len(res.Violations)
	}
	runtime.ReadMemStats(&after)
	if violations > 0 {
		b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(violations), "B/violation")
	}
}
