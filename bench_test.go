// Package bigdansing's root benchmark suite: one testing.B benchmark per
// table and figure of the paper's evaluation (Section 6), exercising the
// same code paths the experiment driver (cmd/bench) sweeps. Workload sizes
// are fixed small so `go test -bench=.` finishes quickly; cmd/bench runs
// the full sweeps and prints the paper-shaped series.
package bigdansing

import (
	"fmt"
	"testing"

	"bigdansing/internal/baseline"
	"bigdansing/internal/cleanse"
	"bigdansing/internal/core"
	"bigdansing/internal/datagen"
	"bigdansing/internal/engine"
	"bigdansing/internal/join"
	"bigdansing/internal/mapred"
	"bigdansing/internal/model"
	"bigdansing/internal/repair"
	"bigdansing/internal/rules"
)

const benchSeed = 42

func mustFD(b *testing.B, id, spec string, schema *model.Schema) *core.Rule {
	b.Helper()
	fd, err := rules.ParseFD(id, spec)
	if err != nil {
		b.Fatal(err)
	}
	r, err := fd.Compile(schema)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

func mustDC(b *testing.B, id, spec string, schema *model.Schema) *core.Rule {
	b.Helper()
	dc, err := rules.ParseDC(id, spec)
	if err != nil {
		b.Fatal(err)
	}
	r, err := dc.Compile(schema)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkTable2Datasets covers Table 2: the dataset generators.
func BenchmarkTable2Datasets(b *testing.B) {
	b.Run("taxa-10K", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = datagen.TaxA(10000, 0.1, benchSeed)
		}
	})
	b.Run("tpch-10K", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = datagen.TPCH(10000, 0.1, benchSeed)
		}
	})
	b.Run("hai-10K", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = datagen.HAI(10000, 0.1, benchSeed)
		}
	})
}

// BenchmarkTable3Rules covers Table 3: rule parsing and compilation.
func BenchmarkTable3Rules(b *testing.B) {
	schema := datagen.TaxSchema()
	for i := 0; i < b.N; i++ {
		fd, _ := rules.ParseFD("phi1", "zipcode -> city")
		if _, err := fd.Compile(schema); err != nil {
			b.Fatal(err)
		}
		dc, _ := rules.ParseDC("phi2", "t1.salary > t2.salary & t1.rate < t2.rate")
		if _, err := dc.Compile(schema); err != nil {
			b.Fatal(err)
		}
		cfd, _ := rules.ParseCFD("cfd", "zipcode -> city | 90210 => LA ; _ => _")
		if _, err := cfd.Compile(schema); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8aCleansing covers Figure 8(a): end-to-end detect+repair.
func BenchmarkFig8aCleansing(b *testing.B) {
	run := func(b *testing.B, rel *model.Relation, rule *core.Rule, algo repair.Algorithm) {
		ctx := engine.New(8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cleaner, err := cleanse.NewCleaner(ctx, []*core.Rule{rule},
				cleanse.WithAlgorithm(algo), cleanse.WithParallelRepair(repair.Options{}))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := cleaner.Clean(rel); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("phi1-taxa-5K", func(b *testing.B) {
		rel := datagen.TaxA(5000, 0.1, benchSeed).Dirty
		run(b, rel, mustFD(b, "phi1", "zipcode -> city", datagen.TaxSchema()), &repair.EquivalenceClass{})
	})
	b.Run("phi2-taxb-1K", func(b *testing.B) {
		rel := datagen.TaxB(1000, 0.05, benchSeed).Dirty
		run(b, rel, mustDC(b, "phi2", "t1.salary > t2.salary & t1.rate < t2.rate", datagen.TaxSchema()), &repair.Hypergraph{})
	})
	b.Run("phi3-tpch-5K", func(b *testing.B) {
		rel := datagen.TPCH(5000, 0.1, benchSeed).Dirty
		run(b, rel, mustFD(b, "phi3", "o_custkey -> c_address", datagen.TPCHSchema()), &repair.EquivalenceClass{})
	})
}

// BenchmarkFig8bErrorRates covers Figure 8(b): the cleansing loop across
// error rates (detection dominating is asserted in the experiments tests).
func BenchmarkFig8bErrorRates(b *testing.B) {
	rule := mustFD(b, "phi1", "zipcode -> city", datagen.TaxSchema())
	for _, rate := range []float64{0.01, 0.10, 0.50} {
		rel := datagen.TaxA(5000, rate, benchSeed).Dirty
		b.Run(fmt.Sprintf("err-%g", rate*100), func(b *testing.B) {
			ctx := engine.New(8)
			for i := 0; i < b.N; i++ {
				cleaner, err := cleanse.NewCleaner(ctx, []*core.Rule{rule},
					cleanse.WithParallelRepair(repair.Options{}))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := cleaner.Clean(rel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchDetect runs one system's detection in a sub-benchmark.
func benchDetect(b *testing.B, system string, rule *core.Rule, rel *model.Relation) {
	b.Run(system, func(b *testing.B) {
		b.ReportAllocs()
		ctx := engine.New(8)
		for i := 0; i < b.N; i++ {
			var err error
			switch system {
			case "bigdansing":
				_, err = core.DetectRule(ctx, rule, rel)
			case "nadeef":
				_, err = baseline.NadeefDetect(rule, rel)
			case "postgresql":
				_, err = baseline.SQLDetect(ctx, baseline.Postgres, rule, rel)
			case "spark-sql":
				_, err = baseline.SQLDetect(ctx, baseline.SparkSQL, rule, rel)
			case "shark":
				_, err = baseline.SQLDetect(ctx, baseline.Shark, rule, rel)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig9aTaxA covers Figure 9(a): φ1 detection across systems.
func BenchmarkFig9aTaxA(b *testing.B) {
	rel := datagen.TaxA(20000, 0.1, benchSeed).Dirty
	rule := mustFD(b, "phi1", "zipcode -> city", datagen.TaxSchema())
	for _, sys := range []string{"bigdansing", "nadeef", "postgresql", "spark-sql"} {
		benchDetect(b, sys, rule, rel)
	}
}

// BenchmarkFig9bTaxB covers Figure 9(b): the inequality DC φ2.
func BenchmarkFig9bTaxB(b *testing.B) {
	rel := datagen.TaxB(2000, 0.1, benchSeed).Dirty
	rule := mustDC(b, "phi2", "t1.salary > t2.salary & t1.rate < t2.rate", datagen.TaxSchema())
	for _, sys := range []string{"bigdansing", "postgresql", "spark-sql", "shark"} {
		benchDetect(b, sys, rule, rel)
	}
}

// BenchmarkFig9cTPCH covers Figure 9(c): φ3 detection across systems.
func BenchmarkFig9cTPCH(b *testing.B) {
	rel := datagen.TPCH(20000, 0.1, benchSeed).Dirty
	rule := mustFD(b, "phi3", "o_custkey -> c_address", datagen.TPCHSchema())
	for _, sys := range []string{"bigdansing", "postgresql", "spark-sql"} {
		benchDetect(b, sys, rule, rel)
	}
}

// BenchmarkFig10aBackends covers Figure 10(a): the in-memory vs disk-based
// backends on φ1.
func BenchmarkFig10aBackends(b *testing.B) {
	rel := datagen.TaxA(50000, 0.1, benchSeed).Dirty
	rule := mustFD(b, "phi1", "zipcode -> city", datagen.TaxSchema())
	b.Run("bigdansing-spark", func(b *testing.B) {
		ctx := engine.New(8)
		for i := 0; i < b.N; i++ {
			if _, err := core.DetectRule(ctx, rule, rel); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bigdansing-hadoop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng, err := mapred.New(b.TempDir(), 8)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.DetectRuleMapReduce(eng, rule, rel, 8, 8); err != nil {
				b.Fatal(err)
			}
			eng.Close()
		}
	})
}

// BenchmarkFig10bInequalityOCJoin covers Figure 10(b): φ2 at the sizes
// where the baselines already exceeded the paper's time budget.
func BenchmarkFig10bInequalityOCJoin(b *testing.B) {
	rel := datagen.TaxB(8000, 0.01, benchSeed).Dirty
	rule := mustDC(b, "phi2", "t1.salary > t2.salary & t1.rate < t2.rate", datagen.TaxSchema())
	benchDetect(b, "bigdansing", rule, rel)
}

// BenchmarkFig10cLargeTPCH covers Figure 10(c): backend comparison on the
// largest workload of the suite.
func BenchmarkFig10cLargeTPCH(b *testing.B) {
	rel := datagen.TPCH(100000, 0.1, benchSeed).Dirty
	rule := mustFD(b, "phi3", "o_custkey -> c_address", datagen.TPCHSchema())
	b.Run("bigdansing-spark", func(b *testing.B) {
		ctx := engine.New(8)
		for i := 0; i < b.N; i++ {
			if _, err := core.DetectRule(ctx, rule, rel); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bigdansing-hadoop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng, err := mapred.New(b.TempDir(), 8)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.DetectRuleMapReduce(eng, rule, rel, 8, 8); err != nil {
				b.Fatal(err)
			}
			eng.Close()
		}
	})
	benchDetect(b, "spark-sql", rule, rel)
}

// BenchmarkFig11aScaleOut covers Figure 11(a): detection vs worker count.
func BenchmarkFig11aScaleOut(b *testing.B) {
	rel := datagen.TPCH(50000, 0.1, benchSeed).Dirty
	rule := mustFD(b, "phi3", "o_custkey -> c_address", datagen.TPCHSchema())
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			ctx := engine.New(w)
			for i := 0; i < b.N; i++ {
				if _, err := core.DetectRule(ctx, rule, rel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig11bDedup covers Figure 11(b): UDF deduplication.
func BenchmarkFig11bDedup(b *testing.B) {
	truth := datagen.Customers("customer1", 600, 3, 0.02, benchSeed)
	rule, err := rules.DedupRule(rules.DedupConfig{
		ID: "phi4", NameAttr: "c_name", PhoneAttr: "c_phone",
		NameThreshold: 0.75, PhoneThreshold: 0.7,
	}, datagen.CustomerSchema())
	if err != nil {
		b.Fatal(err)
	}
	benchDetect(b, "bigdansing", rule, truth.Dirty)
	benchDetect(b, "shark", rule, truth.Dirty)
}

// BenchmarkFig11cJoinAblation covers Figure 11(c): the three physical join
// operators enumerating φ2's pairs.
func BenchmarkFig11cJoinAblation(b *testing.B) {
	rel := datagen.TaxB(2000, 0.1, benchSeed).Dirty
	ctx := engine.New(8)
	d := engine.Parallelize(ctx, rel.Tuples, 0)
	conds := []join.Cond{
		{LeftCol: 4, Op: model.OpGT, RightCol: 4},
		{LeftCol: 5, Op: model.OpLT, RightCol: 5},
	}
	match := func(p engine.PairOf[model.Tuple]) bool {
		return conds[0].Eval(p.Left, p.Right) && conds[1].Eval(p.Left, p.Right)
	}
	b.Run("ocjoin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tasks, err := join.OCJoin(d, conds, 8)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := engine.Map(tasks, func(tk join.Task) int {
				n := 0
				tk.Each(func(_, _ model.Tuple) { n++ })
				return n
			}).Collect(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ucrossproduct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out := engine.Filter(join.UCrossProduct(d), func(p engine.PairOf[model.Tuple]) bool {
				return match(p) || match(engine.PairOf[model.Tuple]{Left: p.Right, Right: p.Left})
			})
			if _, err := out.Count(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("crossproduct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out := engine.Filter(join.CrossProduct(d), match)
			if _, err := out.Count(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig12aAbstraction covers Figure 12(a): full API vs Detect-only.
func BenchmarkFig12aAbstraction(b *testing.B) {
	rel := datagen.TaxA(2000, 0.1, benchSeed).Dirty
	rule, err := rules.DedupRule(rules.DedupConfig{
		ID: "dedupTax", NameAttr: "name", NameThreshold: 0.85,
	}, datagen.TaxSchema())
	if err != nil {
		b.Fatal(err)
	}
	ctx := engine.New(8)
	b.Run("full-api", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.DetectRule(ctx, rule, rel); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("detect-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baseline.DetectOnly(ctx, rule, rel); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig12bRepair covers Figure 12(b): parallel vs centralized repair
// over the same violation set.
func BenchmarkFig12bRepair(b *testing.B) {
	rel := datagen.TaxA(20000, 0.1, benchSeed).Dirty
	rule := mustFD(b, "phi1", "zipcode -> city", datagen.TaxSchema())
	ctx := engine.New(8)
	det, err := core.DetectRules(ctx, []*core.Rule{rule}, rel)
	if err != nil {
		b.Fatal(err)
	}
	algo := &repair.EquivalenceClass{}
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := repair.RepairParallel(det.FixSets, algo, repair.Options{Parallelism: 8}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("centralized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := algo.Repair(det.FixSets); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable4Quality covers Table 4: a full quality-scored repair run
// on HAI with all three FDs.
func BenchmarkTable4Quality(b *testing.B) {
	truth := datagen.HAI(3000, 0.1, benchSeed, 3, 4, 2, 6)
	var ruleSet []*core.Rule
	for _, spec := range []string{"zip -> state", "phone -> zip", "providerID -> city, phone"} {
		ruleSet = append(ruleSet, mustFD(b, spec, spec, datagen.HAISchema()))
	}
	ctx := engine.New(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cleaner, err := cleanse.NewCleaner(ctx, ruleSet, cleanse.WithParallelRepair(repair.Options{}))
		if err != nil {
			b.Fatal(err)
		}
		res, err := cleaner.Clean(truth.Dirty)
		if err != nil {
			b.Fatal(err)
		}
		q := datagen.Evaluate(truth, res.Clean)
		if q.Recall < 0.5 {
			b.Fatalf("recall collapsed: %+v", q)
		}
	}
}
