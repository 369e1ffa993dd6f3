package experiments

import (
	"fmt"

	"bigdansing/internal/baseline"
	"bigdansing/internal/cleanse"
	"bigdansing/internal/core"
	"bigdansing/internal/datagen"
	"bigdansing/internal/engine"
	"bigdansing/internal/model"
	"bigdansing/internal/repair"
)

// nadeefClean emulates NADEEF's full cleansing loop: single-threaded
// query-based detection, then the centralized equivalence-class repair,
// iterated to a fixpoint — the comparison system of Figure 8(a).
func nadeefClean(rule *core.Rule, rel *model.Relation, algo repair.Algorithm, maxIter int) (*model.Relation, int, error) {
	work := rel.Clone()
	if algo == nil {
		algo = &repair.EquivalenceClass{}
	}
	iter := 0
	for ; iter < maxIter; iter++ {
		det, err := baseline.NadeefDetect(rule, work)
		if err != nil {
			return nil, iter, err
		}
		// Deduplicate and attach fixes (NADEEF's violation store).
		seen := map[model.ViolationKey]bool{}
		var fixSets []model.FixSet
		for _, v := range det.Violations {
			k := v.MapKey()
			if seen[k] {
				continue
			}
			seen[k] = true
			fs := model.FixSet{Violation: v}
			if rule.GenFix != nil {
				fs.Fixes = rule.GenFix(nil, v)
			}
			if len(fs.Fixes) > 0 {
				fixSets = append(fixSets, fs)
			}
		}
		if len(fixSets) == 0 {
			return work, iter + 1, nil
		}
		as, err := algo.Repair(fixSets)
		if err != nil {
			return nil, iter, err
		}
		if repair.Apply(work, as, nil) == 0 {
			return work, iter + 1, nil
		}
	}
	return work, iter, nil
}

// Fig8a reproduces Figure 8(a): end-to-end cleansing time (detection plus
// repair) for rules φ1, φ2 and φ3, BigDansing vs NADEEF, at two dataset
// sizes each. Paper sizes (10K/1M rows; 10K/200K for φ2) are scaled down;
// NADEEF is excluded from sizes it could not finish in the paper either.
func Fig8a(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	type workload struct {
		name  string
		rule  *core.Rule
		algo  repair.Algorithm
		mk    func(rows int) *model.Relation
		sizes []int
	}
	workloads := []workload{
		{
			name: "phi1(TaxA)", rule: mustRule(phi1()), algo: &repair.EquivalenceClass{},
			mk:    func(rows int) *model.Relation { return datagen.TaxA(rows, 0.1, cfg.Seed).Dirty },
			sizes: []int{cfg.rows(1000), cfg.rows(20000)},
		},
		{
			name: "phi2(TaxB)", rule: mustRule(phi2()), algo: &repair.Hypergraph{},
			mk:    func(rows int) *model.Relation { return datagen.TaxB(rows, 0.05, cfg.Seed).Dirty },
			sizes: []int{cfg.rows(500), cfg.rows(2000)},
		},
		{
			name: "phi3(TPCH)", rule: mustRule(phi3()), algo: &repair.EquivalenceClass{},
			mk:    func(rows int) *model.Relation { return datagen.TPCH(rows, 0.1, cfg.Seed).Dirty },
			sizes: []int{cfg.rows(1000), cfg.rows(20000)},
		},
	}
	var tables []*Table
	for _, wl := range workloads {
		t := &Table{
			ID:     "fig8a",
			Title:  fmt.Sprintf("end-to-end cleansing, %s", wl.name),
			XLabel: "rows", YLabel: "seconds",
			Series: []Series{{Name: sysBigDansing}, {Name: sysNadeef}},
		}
		for _, n := range wl.sizes {
			rel := wl.mk(n)
			cleaner, err := cleanse.NewCleaner(engine.New(cfg.Workers), []*core.Rule{wl.rule},
				cleanse.WithAlgorithm(wl.algo),
				cleanse.WithParallelRepair(repair.Options{}))
			if err != nil {
				return nil, err
			}
			secs, err := timeIt(func() error {
				_, err := cleaner.Clean(rel)
				return err
			})
			if err != nil {
				return nil, err
			}
			t.Series[0].Points = append(t.Series[0].Points, Point{X: float64(n), Value: secs})

			secs, err = timeIt(func() error {
				_, _, err := nadeefClean(wl.rule, rel, wl.algo, 10)
				return err
			})
			if err != nil {
				return nil, err
			}
			t.Series[1].Points = append(t.Series[1].Points, Point{X: float64(n), Value: secs})
		}
		t.Notes = append(t.Notes, "paper: BigDansing >3 orders of magnitude faster than NADEEF at the larger sizes")
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig8b reproduces Figure 8(b): the violation-detection vs data-repair time
// split on TaxA φ1 while the error rate grows from 1% to 50%. The paper
// finds detection dominates (>90%) at every rate.
func Fig8b(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{ID: "fig8b", Title: "detection vs repair time by error rate (TaxA phi1)",
		XLabel: "error%", YLabel: "seconds",
		Series: []Series{{Name: "violation-detection"}, {Name: "data-repair"}}}
	rule := mustRule(phi1())
	rows := cfg.rows(20000)
	for _, rate := range []float64{0.01, 0.05, 0.10, 0.50} {
		rel := datagen.TaxA(rows, rate, cfg.Seed).Dirty
		cleaner, err := cleanse.NewCleaner(engine.New(cfg.Workers), []*core.Rule{rule},
			cleanse.WithParallelRepair(repair.Options{}))
		if err != nil {
			return nil, err
		}
		res, err := cleaner.Clean(rel)
		if err != nil {
			return nil, err
		}
		rep := res.Report()
		x := rate * 100
		t.Series[0].Points = append(t.Series[0].Points, Point{X: x, Value: rep.DetectTime.Seconds()})
		t.Series[1].Points = append(t.Series[1].Points, Point{X: x, Value: rep.RepairTime.Seconds()})
	}
	t.Notes = append(t.Notes, "paper: violation detection takes >90% of cleansing time at every error rate")
	return []*Table{t}, nil
}

// Fig12b reproduces Figure 12(b): the parallel black-box repair vs the
// centralized repair while the error rate grows; the paper finds parallel
// wins except at very small error rates.
func Fig12b(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{ID: "fig12b", Title: "parallel vs centralized repair (TaxA phi1)",
		XLabel: "error%", YLabel: "repair seconds",
		Series: []Series{{Name: "bigdansing"}, {Name: "bigdansing-serial-repair"}}}
	rule := mustRule(phi1())
	rows := cfg.rows(20000)
	for _, rate := range []float64{0.01, 0.05, 0.10, 0.50} {
		rel := datagen.TaxA(rows, rate, cfg.Seed).Dirty
		for si, parallel := range []bool{true, false} {
			var opts []cleanse.Option
			if parallel {
				opts = append(opts, cleanse.WithParallelRepair(repair.Options{
					Parallelism: cfg.Workers,
				}))
			}
			cleaner, err := cleanse.NewCleaner(engine.New(cfg.Workers), []*core.Rule{rule}, opts...)
			if err != nil {
				return nil, err
			}
			res, err := cleaner.Clean(rel)
			if err != nil {
				return nil, err
			}
			t.Series[si].Points = append(t.Series[si].Points,
				Point{X: rate * 100, Value: res.Report().RepairTime.Seconds()})
		}
	}
	t.Notes = append(t.Notes, "paper: parallel repair wins except at the smallest error rate (1%)")
	return []*Table{t}, nil
}

// Table4 reproduces Table 4: repair quality. The equivalence-class
// algorithm on HAI under rule combinations φ6, φ6&φ7, φ6-φ8, run both with
// the parallel black-box wrapper ("BigDansing") and centralized
// ("NADEEF"); and the hypergraph algorithm on TaxB with φD, measured by
// distance to the ground truth.
func Table4(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	rows := cfg.rows(3000)

	// Each combination gets its own dirty dataset (Section 6.1): errors are
	// injected only on the attributes its rules cover, so the combination
	// can in principle repair them. Columns: 2 city, 3 state, 4 zip, 6 phone.
	combos := []struct {
		name    string
		specs   []string
		targets []int
	}{
		{"phi6", []string{"phi6"}, []int{3}},
		{"phi6&phi7", []string{"phi6", "phi7"}, []int{3, 4}},
		{"phi6-phi8", []string{"phi6", "phi7", "phi8"}, []int{3, 4, 2, 6}},
	}
	mkRules := func(names []string) ([]*core.Rule, error) {
		var rs []*core.Rule
		for _, n := range names {
			var r *core.Rule
			var err error
			switch n {
			case "phi6":
				r, err = phi6()
			case "phi7":
				r, err = phi7()
			case "phi8":
				r, err = phi8()
			}
			if err != nil {
				return nil, err
			}
			rs = append(rs, r)
		}
		return rs, nil
	}

	// One table per measure so the output mirrors Table 4's columns.
	precision := &Table{ID: "table4", Title: "repair precision (HAI, equivalence class)", XLabel: "combo#", YLabel: "precision",
		Series: []Series{{Name: "bigdansing"}, {Name: "nadeef(centralized)"}}}
	recall := &Table{ID: "table4", Title: "repair recall (HAI, equivalence class)", XLabel: "combo#", YLabel: "recall",
		Series: []Series{{Name: "bigdansing"}, {Name: "nadeef(centralized)"}}}
	iters := &Table{ID: "table4", Title: "repair iterations (HAI)", XLabel: "combo#", YLabel: "iterations",
		Series: []Series{{Name: "bigdansing"}, {Name: "nadeef(centralized)"}}}

	for ci, combo := range combos {
		tr := datagen.HAI(rows, 0.1, cfg.Seed, combo.targets...)
		rs, err := mkRules(combo.specs)
		if err != nil {
			return nil, err
		}
		x := float64(ci + 1)
		for si, parallel := range []bool{true, false} {
			var opts []cleanse.Option
			if parallel {
				opts = append(opts, cleanse.WithParallelRepair(repair.Options{}))
			}
			cleaner, err := cleanse.NewCleaner(engine.New(cfg.Workers), rs, opts...)
			if err != nil {
				return nil, err
			}
			res, err := cleaner.Clean(tr.Dirty)
			if err != nil {
				return nil, err
			}
			q := datagen.Evaluate(tr, res.Clean)
			precision.Series[si].Points = append(precision.Series[si].Points, Point{X: x, Value: q.Precision})
			recall.Series[si].Points = append(recall.Series[si].Points, Point{X: x, Value: q.Recall})
			iters.Series[si].Points = append(iters.Series[si].Points, Point{X: x, Value: float64(res.Report().Iterations)})
		}
		precision.Notes = append(precision.Notes,
			fmt.Sprintf("combo %d = %v", ci+1, combo.specs))
	}

	// Hypergraph algorithm on TaxB with φD: distance to ground truth.
	dist := &Table{ID: "table4", Title: "hypergraph repair distance (TaxB, phiD)", XLabel: "measure#", YLabel: "value",
		Series: []Series{{Name: "bigdansing"}, {Name: "nadeef(centralized)"}},
		Notes:  []string{"measure 1 = avg |R,G|/e distance, measure 2 = total |R,G| distance, measure 3 = iterations"}}
	trB := datagen.TaxB(cfg.rows(500), 0.05, cfg.Seed)
	rule2 := mustRule(phi2())
	for si, parallel := range []bool{true, false} {
		opts := []cleanse.Option{cleanse.WithAlgorithm(&repair.Hypergraph{})}
		if parallel {
			opts = append(opts, cleanse.WithParallelRepair(repair.Options{}))
		}
		cleaner, err := cleanse.NewCleaner(engine.New(cfg.Workers), []*core.Rule{rule2}, opts...)
		if err != nil {
			return nil, err
		}
		res, err := cleaner.Clean(trB.Dirty)
		if err != nil {
			return nil, err
		}
		q := datagen.Evaluate(trB, res.Clean)
		dist.Series[si].Points = append(dist.Series[si].Points,
			Point{X: 1, Value: q.AvgDistance},
			Point{X: 2, Value: q.TotalDistance},
			Point{X: 3, Value: float64(res.Report().Iterations)})
	}

	precision.Notes = append(precision.Notes,
		"paper: BigDansing matches the centralized system's precision/recall and iteration counts")
	return []*Table{precision, recall, iters, dist}, nil
}
