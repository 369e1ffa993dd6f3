package repair_test

import (
	"testing"

	"bigdansing/internal/core"
	"bigdansing/internal/datagen"
	"bigdansing/internal/engine"
	"bigdansing/internal/repair"
	"bigdansing/internal/rules"
)

// BenchmarkHypergraphRepair times one repair round of the taxb_dc_clean
// workload's shape: φ2 over TaxB at 1 400 rows and 5 % errors, detected
// once outside the timer, then repaired per op by the hypergraph algorithm
// at parallelism 2.
func BenchmarkHypergraphRepair(b *testing.B) {
	dc, err := rules.ParseDC("phi2", "t1.salary > t2.salary & t1.rate < t2.rate")
	if err != nil {
		b.Fatal(err)
	}
	rule, err := dc.Compile(datagen.TaxSchema())
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.DetectRule(engine.New(2), rule, datagen.TaxB(1400, 0.05, 11).Dirty)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := repair.RepairParallel(res.FixSets, &repair.Hypergraph{}, repair.Options{Parallelism: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEquivalenceRepair times one repair round of the taxa_fd_clean
// workload's shape: φ1 over TaxA at 60 000 rows and 10 % errors, detected
// once outside the timer, then repaired per op by the equivalence-class
// algorithm at parallelism 2.
func BenchmarkEquivalenceRepair(b *testing.B) {
	fd, err := rules.ParseFD("phi1", "zipcode -> city")
	if err != nil {
		b.Fatal(err)
	}
	rule, err := fd.Compile(datagen.TaxSchema())
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.DetectRule(engine.New(2), rule, datagen.TaxA(60000, 0.10, 1).Dirty)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := repair.RepairParallel(res.FixSets, &repair.EquivalenceClass{}, repair.Options{Parallelism: 2}); err != nil {
			b.Fatal(err)
		}
	}
}
