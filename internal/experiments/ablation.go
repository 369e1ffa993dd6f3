package experiments

import (
	"fmt"

	"bigdansing/internal/baseline"
	"bigdansing/internal/core"
	"bigdansing/internal/datagen"
	"bigdansing/internal/engine"
	"bigdansing/internal/join"
	"bigdansing/internal/model"
	"bigdansing/internal/rules"
)

// Fig11b reproduces Figure 11(b): UDF deduplication on NCVoter, customer1
// and customer2 — BigDansing (blocked Levenshtein UDF) vs the Shark proxy,
// which runs the UDF over a cross product. Paper row counts (9M-32M) are
// scaled to laptop sizes.
func Fig11b(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{ID: "fig11b", Title: "deduplication runtime by dataset", XLabel: "dataset#", YLabel: "seconds",
		Series: []Series{{Name: sysBigDansing}, {Name: sysShark}},
		Notes:  []string{"dataset 1 = ncvoter, 2 = customer1 (3x dups), 3 = customer2 (5x dups)"}}

	type workload struct {
		rel  *model.Relation
		rule *core.Rule
	}
	ncv := datagen.NCVoter(cfg.rows(2000), 0.2, cfg.Seed)
	c1 := datagen.Customers("customer1", cfg.rows(600), 3, 0.02, cfg.Seed)
	c2 := datagen.Customers("customer2", cfg.rows(450), 5, 0.02, cfg.Seed)
	r4 := mustRule(phi4())
	r5 := mustRule(phi5())
	wls := []workload{{ncv.Dirty, r5}, {c1.Dirty, r4}, {c2.Dirty, r4}}

	ctx := engine.New(cfg.Workers)
	for i, wl := range wls {
		x := float64(i + 1)
		secs, err := timeIt(func() error {
			_, err := core.DetectRule(ctx, wl.rule, wl.rel)
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Series[0].Points = append(t.Series[0].Points, Point{X: x, Value: secs})

		secs, err = timeIt(func() error {
			_, err := baseline.SQLDetect(ctx, baseline.Shark, wl.rule, wl.rel)
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Series[1].Points = append(t.Series[1].Points, Point{X: x, Value: secs})
	}
	t.Notes = append(t.Notes, "paper: BigDansing outperforms Shark on every dataset, up to 67x on customer2")
	return []*Table{t}, nil
}

// Fig11c reproduces Figure 11(c): the physical join ablation on TaxB φ2 —
// CrossProduct vs UCrossProduct vs OCJoin enumerate/validate the same
// violating pairs.
func Fig11c(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{ID: "fig11c", Title: "join operator ablation (TaxB phi2)", XLabel: "rows", YLabel: "seconds",
		Series: []Series{{Name: "ocjoin"}, {Name: "ucrossproduct"}, {Name: "crossproduct"}}}
	ctx := engine.New(cfg.Workers)
	conds := []join.Cond{
		{LeftCol: 4, Op: model.OpGT, RightCol: 4}, // salary
		{LeftCol: 5, Op: model.OpLT, RightCol: 5}, // rate
	}
	evalPair := func(p engine.PairOf[model.Tuple]) bool {
		for _, c := range conds {
			if !c.Eval(p.Left, p.Right) {
				return false
			}
		}
		return true
	}
	for _, n := range []int{cfg.rows(500), cfg.rows(1000), cfg.rows(2000)} {
		rel := datagen.TaxB(n, 0.1, cfg.Seed).Dirty
		d := engine.Parallelize(ctx, rel.Tuples, 0)
		x := float64(n)

		secs, err := timeIt(func() error {
			tasks, err := join.OCJoin(d, conds, cfg.Workers)
			if err != nil {
				return err
			}
			_, err = engine.Map(tasks, func(tk join.Task) int {
				n := 0
				tk.Each(func(_, _ model.Tuple) { n++ })
				return n
			}).Collect()
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Series[0].Points = append(t.Series[0].Points, Point{X: x, Value: secs})

		secs, err = timeIt(func() error {
			// UCrossProduct sees each unordered pair once; validate both
			// orientations of the asymmetric predicate.
			pairs := join.UCrossProduct(d)
			matched := engine.Filter(pairs, func(p engine.PairOf[model.Tuple]) bool {
				return evalPair(p) || evalPair(engine.PairOf[model.Tuple]{Left: p.Right, Right: p.Left})
			})
			_, err := matched.Count()
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Series[1].Points = append(t.Series[1].Points, Point{X: x, Value: secs})

		secs, err = timeIt(func() error {
			pairs := join.CrossProduct(d)
			matched := engine.Filter(pairs, evalPair)
			_, err := matched.Count()
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Series[2].Points = append(t.Series[2].Points, Point{X: x, Value: secs})
	}
	t.Notes = append(t.Notes, "paper: OCJoin more than 2 orders of magnitude faster than both cross products (up to 655x); UCrossProduct slightly ahead of CrossProduct")
	return []*Table{t}, nil
}

// Fig12a reproduces Figure 12(a): the value of the five-operator
// abstraction — a dedup UDF run through the full API (Scope/Block/Iterate
// prune the pair space) vs the same UDF as a lone Detect over the cross
// product.
func Fig12a(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{ID: "fig12a", Title: "full API vs Detect-only (dedup UDF on TaxA)", XLabel: "variant#", YLabel: "seconds",
		Series: []Series{{Name: "full-api"}, {Name: "detect-only"}},
		Notes:  []string{"variant 1 = full five-operator API, 2 = Detect-only"}}
	rel, rule, err := fig12aInput(cfg)
	if err != nil {
		return nil, err
	}
	ctx := engine.New(cfg.Workers)

	secs, err := timeIt(func() error {
		_, err := core.DetectRule(ctx, rule, rel)
		return err
	})
	if err != nil {
		return nil, err
	}
	t.Series[0].Points = append(t.Series[0].Points, Point{X: 1, Value: secs})

	secs, err = timeIt(func() error {
		_, err := baseline.DetectOnly(ctx, rule, rel)
		return err
	})
	if err != nil {
		return nil, err
	}
	t.Series[1].Points = append(t.Series[1].Points, Point{X: 2, Value: secs})

	t.Notes = append(t.Notes, "paper: the full API is 3 orders of magnitude faster than Detect-only")
	return []*Table{t}, nil
}

// fig12aInput is Figure 12(a)'s relation and dedup rule.
func fig12aInput(cfg Config) (*model.Relation, *core.Rule, error) {
	rule, err := rules.DedupRule(rules.DedupConfig{
		ID: "dedupTax", NameAttr: "name", PhoneAttr: "", NameThreshold: 0.85,
	}, datagen.TaxSchema())
	return datagen.TaxA(cfg.rows(2000), 0.1, cfg.Seed).Dirty, rule, err
}

// Tables23 prints Table 2 (dataset statistics at the configured scale) and
// Table 3 (the integrity constraints used for testing).
func Tables23(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	t2 := &Table{ID: "table2", Title: "dataset statistics (rows at current scale)", XLabel: "dataset#", YLabel: "rows",
		Series: []Series{{Name: "rows"}}}
	datasets := []struct {
		name string
		rows int
	}{
		{"taxa", cfg.rows(100000)},
		{"taxb", cfg.rows(4000)},
		{"tpch", cfg.rows(400000)},
		{"customer1", cfg.rows(600) * 3},
		{"customer2", cfg.rows(450) * 5},
		{"ncvoter", cfg.rows(2000)},
		{"hai", cfg.rows(3000)},
	}
	for i, d := range datasets {
		t2.Series[0].Points = append(t2.Series[0].Points, Point{X: float64(i + 1), Value: float64(d.rows)})
		t2.Notes = append(t2.Notes, fmt.Sprintf("dataset %d = %s", i+1, d.name))
	}

	t3 := &Table{ID: "table3", Title: "integrity constraints used for testing", XLabel: "rule#", YLabel: "-",
		Series: []Series{{Name: "defined"}}}
	specs := []string{
		"phi1 (FD): zipcode -> city",
		"phi2 (DC): not(t1.salary > t2.salary & t1.rate < t2.rate)",
		"phi3 (FD): o_custkey -> c_address",
		"phi4 (UDF): customer rows are duplicates (Levenshtein on name+phone)",
		"phi5 (UDF): ncvoter rows are duplicates (Levenshtein on name+phone)",
		"phi6 (FD): zip -> state",
		"phi7 (FD): phone -> zip",
		"phi8 (FD): providerID -> city, phone",
	}
	for i, s := range specs {
		t3.Series[0].Points = append(t3.Series[0].Points, Point{X: float64(i + 1), Value: 1})
		t3.Notes = append(t3.Notes, s)
	}
	return []*Table{t2, t3}, nil
}
