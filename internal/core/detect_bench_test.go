package core_test

import (
	"runtime"
	"testing"

	"bigdansing/internal/core"
	"bigdansing/internal/datagen"
	"bigdansing/internal/engine"
	"bigdansing/internal/rules"
)

// BenchmarkDetectFD runs the tpch_fd_detect workload's shape through
// DetectRule: φ3 (o_custkey -> c_address) over 100 000 TPC-H rows at 10 %
// errors, on the local backend at parallelism 2. Besides the per-op
// allocation it reports the bytes allocated per violation found — the size
// of the detect→repair record plus its share of grouping and dedup.
func BenchmarkDetectFD(b *testing.B) {
	fd, err := rules.ParseFD("phi3", "o_custkey -> c_address")
	if err != nil {
		b.Fatal(err)
	}
	rule, err := fd.Compile(datagen.TPCHSchema())
	if err != nil {
		b.Fatal(err)
	}
	rel := datagen.TPCH(100000, 0.10, 1).Dirty
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
