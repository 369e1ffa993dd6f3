package probrepair_test

import (
	"testing"

	"bigdansing/internal/cleanse"
	"bigdansing/internal/core"
	"bigdansing/internal/datagen"
	"bigdansing/internal/engine"
	"bigdansing/internal/model"
	"bigdansing/internal/probrepair"
	"bigdansing/internal/repair"
	"bigdansing/internal/rules"
)

func phi1Rule(t *testing.T) *core.Rule {
	t.Helper()
	fd, err := rules.ParseFD("phi1", "zipcode -> city")
	if err != nil {
		t.Fatal(err)
	}
	r, err := fd.Compile(datagen.TaxSchema())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// cleanTax runs a full cleanse of the dirty Tax instance with the given
// repair algorithm and parallelism and returns the repaired relation.
func cleanTax(t *testing.T, tr *datagen.Truth, algo repair.Algorithm, parallelism int) *model.Relation {
	t.Helper()
	cleaner, err := cleanse.NewCleaner(engine.New(4), []*core.Rule{phi1Rule(t)},
		cleanse.WithAlgorithm(algo),
		cleanse.WithParallelRepair(repair.Options{Parallelism: parallelism}),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cleaner.Clean(tr.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	return res.Clean
}

// TestProbAccuracyAtLeastEquivalence is the satellite acceptance test: on
// the FD workload with 5% injected errors and a fixed seed, the
// probabilistic algorithm's precision AND recall must be at least the
// equivalence-class algorithm's.
func TestProbAccuracyAtLeastEquivalence(t *testing.T) {
	tr := datagen.TaxA(1500, 0.05, 11)
	eqQ := datagen.Evaluate(tr, cleanTax(t, tr, &repair.EquivalenceClass{}, 4))
	probQ := datagen.Evaluate(tr, cleanTax(t, tr, &probrepair.Prob{Samples: probrepair.DefaultSamples, Seed: 11}, 4))
	t.Logf("eq:   precision=%.4f recall=%.4f updated=%d", eqQ.Precision, eqQ.Recall, eqQ.Updated)
	t.Logf("prob: precision=%.4f recall=%.4f updated=%d", probQ.Precision, probQ.Recall, probQ.Updated)
	if probQ.Precision < eqQ.Precision {
		t.Errorf("prob precision %.4f < eq precision %.4f", probQ.Precision, eqQ.Precision)
	}
	if probQ.Recall < eqQ.Recall {
		t.Errorf("prob recall %.4f < eq recall %.4f", probQ.Recall, eqQ.Recall)
	}
	if probQ.Recall < 0.5 {
		t.Errorf("prob recall %.4f implausibly low for the FD workload", probQ.Recall)
	}
}

// TestProbByteReproducible pins the determinism contract: a fixed seed
// reproduces the repaired relation cell for cell, run over run and across
// repair parallelism levels (worker scheduling must not leak into results).
func TestProbByteReproducible(t *testing.T) {
	tr := datagen.TaxA(600, 0.08, 5)
	a := cleanTax(t, tr, &probrepair.Prob{Samples: probrepair.DefaultSamples, Seed: 5}, 4)
	b := cleanTax(t, tr, &probrepair.Prob{Samples: probrepair.DefaultSamples, Seed: 5}, 4)
	c := cleanTax(t, tr, &probrepair.Prob{Samples: probrepair.DefaultSamples, Seed: 5}, 1)
	diff := func(x, y *model.Relation, label string) {
		t.Helper()
		if x.Len() != y.Len() {
			t.Fatalf("%s: row counts differ: %d vs %d", label, x.Len(), y.Len())
		}
		idx := y.ByID()
		for i := range x.Tuples {
			xt := &x.Tuples[i]
			yt := &y.Tuples[idx[xt.ID]]
			for col := range xt.Cells {
				if !xt.Cell(col).Equal(yt.Cell(col)) {
					t.Fatalf("%s: cell (%d,%d) differs: %v vs %v",
						label, xt.ID, col, xt.Cell(col), yt.Cell(col))
				}
			}
		}
	}
	diff(a, b, "rerun same seed")
	diff(a, c, "parallelism 4 vs 1")
}

// TestProbZeroSamplesMatchesEquivalenceEndToEnd extends the degradation
// property through the whole cleanse loop: Samples=0 must clean exactly like
// the equivalence-class algorithm.
func TestProbZeroSamplesMatchesEquivalenceEndToEnd(t *testing.T) {
	tr := datagen.TaxA(400, 0.1, 9)
	eq := cleanTax(t, tr, &repair.EquivalenceClass{}, 4)
	degraded := cleanTax(t, tr, &probrepair.Prob{Samples: 0, Seed: 9}, 4)
	idx := degraded.ByID()
	for i := range eq.Tuples {
		et := &eq.Tuples[i]
		dt := &degraded.Tuples[idx[et.ID]]
		for col := range et.Cells {
			if !et.Cell(col).Equal(dt.Cell(col)) {
				t.Fatalf("cell (%d,%d): eq=%v degraded-prob=%v", et.ID, col, et.Cell(col), dt.Cell(col))
			}
		}
	}
}
