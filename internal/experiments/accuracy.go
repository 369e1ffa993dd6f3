package experiments

import (
	"bigdansing/internal/cleanse"
	"bigdansing/internal/core"
	"bigdansing/internal/datagen"
	"bigdansing/internal/engine"
	"bigdansing/internal/probrepair"
	"bigdansing/internal/repair"
)

// ExtAccuracy is an extension experiment beyond the paper: repair quality of
// the three centralized-quality algorithms — equivalence class (the paper's
// default), hypergraph (Appendix F) and the probabilistic factor-graph
// backend — on datagen ground truth, in the style of Table 4. The FD
// workload (TaxA, φ1) sweeps the error rate and reports precision and
// recall; the DC workload (TaxB, φ2) reports the average numeric distance to
// the ground truth over injected-error cells (the ||R,G||/e measure), where
// the equivalence-class algorithm cannot act at all (inequality fixes give
// it no equality classes).
func ExtAccuracy(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()

	// Fresh algorithm instances per measurement: sessions clone before
	// learning, but separate instances keep the runs visibly independent.
	algos := []struct {
		name string
		mk   func() repair.Algorithm
	}{
		{"equivalence", func() repair.Algorithm { return &repair.EquivalenceClass{} }},
		{"hypergraph", func() repair.Algorithm { return &repair.Hypergraph{} }},
		{"prob", func() repair.Algorithm { return &probrepair.Prob{Samples: probrepair.DefaultSamples, Seed: cfg.Seed} }},
	}
	series := func() []Series {
		s := make([]Series, len(algos))
		for i, a := range algos {
			s[i] = Series{Name: a.name}
		}
		return s
	}
	run := func(tr *datagen.Truth, rule *core.Rule, algo repair.Algorithm) (datagen.Quality, error) {
		cleaner, err := cleanse.NewCleaner(engine.New(cfg.Workers), []*core.Rule{rule},
			cleanse.WithAlgorithm(algo),
			cleanse.WithParallelRepair(repair.Options{}),
		)
		if err != nil {
			return datagen.Quality{}, err
		}
		res, err := cleaner.Clean(tr.Dirty)
		if err != nil {
			return datagen.Quality{}, err
		}
		return datagen.Evaluate(tr, res.Clean), nil
	}

	precision := &Table{ID: "ext-accuracy", Title: "FD repair precision (TaxA phi1)",
		XLabel: "error%", YLabel: "precision", Series: series()}
	recall := &Table{ID: "ext-accuracy", Title: "FD repair recall (TaxA phi1)",
		XLabel: "error%", YLabel: "recall", Series: series()}
	fdRows := cfg.rows(3000)
	for _, rate := range []float64{0.02, 0.05, 0.10} {
		tr := datagen.TaxA(fdRows, rate, cfg.Seed)
		x := rate * 100
		for si, a := range algos {
			q, err := run(tr, mustRule(phi1()), a.mk())
			if err != nil {
				return nil, err
			}
			precision.Series[si].Points = append(precision.Series[si].Points, Point{X: x, Value: q.Precision})
			recall.Series[si].Points = append(recall.Series[si].Points, Point{X: x, Value: q.Recall})
		}
	}
	precision.Notes = append(precision.Notes,
		"extension: prob = factor-graph inference (internal/probrepair), seeded Gibbs + margin fallback")
	recall.Notes = append(recall.Notes,
		"recall is bounded by the attribute coverage of phi1 (state-column errors are invisible to it)")

	distance := &Table{ID: "ext-accuracy", Title: "DC repair avg distance ||R,G||/e (TaxB phi2)",
		XLabel: "error%", YLabel: "avg distance", Series: series()}
	dcRows := cfg.rows(400)
	for _, rate := range []float64{0.02, 0.05, 0.10} {
		tr := datagen.TaxB(dcRows, rate, cfg.Seed)
		x := rate * 100
		for si, a := range algos {
			q, err := run(tr, mustRule(phi2()), a.mk())
			if err != nil {
				return nil, err
			}
			distance.Series[si].Points = append(distance.Series[si].Points, Point{X: x, Value: q.AvgDistance})
		}
	}
	distance.Notes = append(distance.Notes,
		"equivalence class proposes nothing for inequality fixes: its distance is the uncorrected corruption")

	return []*Table{precision, recall, distance}, nil
}
