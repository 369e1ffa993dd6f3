package experiments

import (
	"bigdansing/internal/core"
	"bigdansing/internal/datagen"
	"bigdansing/internal/engine"
	"bigdansing/internal/mapred"
	"bigdansing/internal/model"
	"bigdansing/internal/repair"
)

// Ablation experiments for this reproduction's own design choices (they
// have no counterpart figure in the paper; EXPERIMENTS.md reports them as
// extensions).

// ExtConsolidation measures detecting several same-table rules as one
// consolidated plan (shared scans, Algorithm 1) vs one plan per rule.
func ExtConsolidation(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{ID: "ext-consolidation", Title: "multi-rule detection: consolidated plan vs per-rule plans (HAI)",
		XLabel: "rules", YLabel: "seconds",
		Series: []Series{{Name: "consolidated"}, {Name: "per-rule"}}}
	rows := cfg.rows(50000)
	tr := datagen.HAI(rows, 0.1, cfg.Seed)
	ruleSets := [][]*core.Rule{
		{mustRule(phi6())},
		{mustRule(phi6()), mustRule(phi7())},
		{mustRule(phi6()), mustRule(phi7()), mustRule(phi8())},
	}
	ctx := engine.New(cfg.Workers)
	// Warm up caches so the first measurement is not penalized.
	if _, err := core.DetectRules(ctx, ruleSets[0], tr.Dirty); err != nil {
		return nil, err
	}
	for _, rs := range ruleSets {
		x := float64(len(rs))
		secs, err := timeIt(func() error {
			_, err := core.DetectRules(ctx, rs, tr.Dirty)
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Series[0].Points = append(t.Series[0].Points, Point{X: x, Value: secs})

		secs, err = timeIt(func() error {
			for _, r := range rs {
				if _, err := core.DetectRule(ctx, r, tr.Dirty); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		t.Series[1].Points = append(t.Series[1].Points, Point{X: x, Value: secs})
	}
	t.Notes = append(t.Notes, "extension: Algorithm 1's shared scans across rules over one table")
	return []*Table{t}, nil
}

// ExtCombiner measures the distributed equivalence class's first word count
// on the disk backend with and without the map-side combine, reporting
// spilled bytes (the quantity the combiner exists to cut).
func ExtCombiner(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{ID: "ext-combiner", Title: "distributed equivalence class: MR spill with vs without combiner",
		XLabel: "violations", YLabel: "bytes spilled",
		Series: []Series{{Name: "with-combiner"}, {Name: "without-combiner"}}}

	// Build star-shaped FD fix sets of growing size.
	mkFixSets := func(n int) []model.FixSet {
		hub := model.NewCell(0, 2, model.S("HUB"))
		out := make([]model.FixSet, 0, n)
		for i := 1; i <= n; i++ {
			c := model.NewCell(int64(i), 2, model.S("X"))
			out = append(out, model.FixSet{
				Violation: model.NewViolation("fd", hub, c),
				Fixes:     []model.Fix{model.NewCellFix(c, model.OpEQ, hub)},
			})
		}
		return out
	}
	// spilled runs job on a fresh disk-backed context and reads the bytes
	// its exchanges wrote.
	spilled := func(job func(ctx *engine.Context) error) (float64, error) {
		eng, err := mapred.New("", cfg.Workers)
		if err != nil {
			return 0, err
		}
		ctx, err := engine.NewContext(engine.Config{Parallelism: cfg.Workers, Exchange: eng})
		if err != nil {
			return 0, err
		}
		defer ctx.Close()
		if err := job(ctx); err != nil {
			return 0, err
		}
		return float64(eng.Stats().BytesSpilled()), nil
	}
	for _, n := range []int{cfg.rows(1000), cfg.rows(5000), cfg.rows(20000)} {
		fs := mkFixSets(n)
		// With combiner (the shipped implementation: ReduceByKey).
		with, err := spilled(func(ctx *engine.Context) error {
			_, err := (&repair.DistributedEquivalenceClass{Ctx: ctx}).Repair(fs)
			return err
		})
		if err != nil {
			return nil, err
		}
		// Without: the same word count as GroupByKey plus a fold, so one
		// record per element reaches the run files.
		without, err := spilled(func(ctx *engine.Context) error {
			var words []engine.Pair[string, int64]
			for _, f := range fs {
				for _, c := range f.Violation.Cells {
					words = append(words, engine.KV(c.Value.Key(), int64(1)))
				}
			}
			grouped := engine.GroupByKey(engine.Parallelize(ctx, words, 0))
			return engine.Map(grouped, func(g engine.Pair[string, []int64]) int { return len(g.Value) }).Err()
		})
		if err != nil {
			return nil, err
		}
		t.Series[0].Points = append(t.Series[0].Points, Point{X: float64(n), Value: with})
		t.Series[1].Points = append(t.Series[1].Points, Point{X: float64(n), Value: without})
	}
	t.Notes = append(t.Notes, "extension: the Combine task of Appendix G.2 collapses per-map duplicate keys before spilling")
	return []*Table{t}, nil
}

// ExtNet reruns the Figure 10 scale-out shape on the networked backend: the
// same TaxA φ1 detection across 1, 2 and 4 real worker OS processes (spawned
// over loopback TCP), with the in-process backend as the baseline and the
// measured wire volume as a third series. The caller's binary must be able
// to act as a worker (cmd/bench and the test binaries call
// netexec.MaybeWorker at startup).
func ExtNet(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{ID: "ext-net", Title: "Fig. 10 rerun: detection across real worker processes (TaxA phi1)",
		XLabel: "worker processes", YLabel: "seconds",
		Series: []Series{{Name: "net"}, {Name: "in-process"}, {Name: "net-wire-MB"}}}
	rule := mustRule(phi1())
	rel := datagen.TaxA(cfg.rows(40000), 0.1, cfg.Seed).Dirty

	base, err := timeIt(func() error {
		_, err := core.DetectRules(engine.New(cfg.Workers), []*core.Rule{rule}, rel)
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, w := range []int{1, 2, 4} {
		ctx, err := engine.NewContext(engine.Config{
			Parallelism: cfg.Workers,
			Backend:     engine.BackendNet,
			NetWorkers:  w,
		})
		if err != nil {
			return nil, err
		}
		secs, err := timeIt(func() error {
			_, err := core.DetectRules(ctx, []*core.Rule{rule}, rel)
			return err
		})
		snap := ctx.Stats().Snapshot()
		ctx.Close()
		if err != nil {
			return nil, err
		}
		t.Series[0].Points = append(t.Series[0].Points, Point{X: float64(w), Value: secs})
		t.Series[1].Points = append(t.Series[1].Points, Point{X: float64(w), Value: base})
		t.Series[2].Points = append(t.Series[2].Points,
			Point{X: float64(w), Value: float64(snap.NetBytesSent+snap.NetBytesRecv) / (1 << 20)})
	}
	t.Notes = append(t.Notes,
		"extension: partitions really cross process boundaries -- frames over loopback TCP, CRC-checked, credit-windowed",
		"expect net slower than in-process at this scale: the wire cost is real and the point is the trend across workers")
	return []*Table{t}, nil
}
