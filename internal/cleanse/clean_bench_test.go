package cleanse

import (
	"bytes"
	"runtime"
	"testing"

	"bigdansing/internal/core"
	"bigdansing/internal/datagen"
	"bigdansing/internal/engine"
	"bigdansing/internal/model"
	"bigdansing/internal/repair"
	"bigdansing/internal/rules"
)

// BenchmarkCleanFD runs the taxa_fd_clean workload's op: 60 000 TaxA rows at
// 10 % errors (seed 1) as CSV bytes, read with ReadCSV, φ1 (zipcode -> city)
// compiled, and one Clean with equivalence-class repair run in parallel at
// 2, on a context of parallelism 2. Besides the per-op allocation it
// reports the bytes allocated per violation of the first detection round.
// With -cpuprofile or -memprofile it is the workload one flag from a
// profile.
func BenchmarkCleanFD(b *testing.B) {
	schema := datagen.TaxSchema()
	var buf bytes.Buffer
	if err := model.WriteCSV(&buf, datagen.TaxA(60000, 0.10, 1).Dirty, true); err != nil {
		b.Fatal(err)
	}
	ctx := engine.New(2)
	var before, after runtime.MemStats
	violations := 0
	b.ReportAllocs()
	b.ResetTimer()
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		rel, err := model.ReadCSV(bytes.NewReader(buf.Bytes()), "taxa", schema, true, 0)
		if err != nil {
			b.Fatal(err)
		}
		fd, err := rules.ParseFD("phi1", "zipcode -> city")
		if err != nil {
			b.Fatal(err)
		}
		rule, err := fd.Compile(schema)
		if err != nil {
			b.Fatal(err)
		}
		cleaner, err := NewCleaner(ctx, []*core.Rule{rule},
			WithAlgorithm(&repair.EquivalenceClass{}),
			WithParallelRepair(repair.Options{Parallelism: 2}))
		if err != nil {
			b.Fatal(err)
		}
		res, err := cleaner.Clean(rel)
		if err != nil {
			b.Fatal(err)
		}
		violations += res.Report().InitialViolations
	}
	runtime.ReadMemStats(&after)
	if violations > 0 {
		b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(violations), "B/violation")
	}
}
