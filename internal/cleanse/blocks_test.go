package cleanse

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"bigdansing/internal/core"
	"bigdansing/internal/datagen"
	"bigdansing/internal/engine"
	"bigdansing/internal/model"
	"bigdansing/internal/repair"
	"bigdansing/internal/rules"
	"bigdansing/internal/trace"
)

// swapFirst swaps the values of the two cells of its component's first
// equality cell fix, which resolves nothing: with a freeze threshold of one
// both cells are then frozen, so later rounds see fix sets whose cells are
// all frozen, which repair must not be handed.
type swapFirst struct{}

func (swapFirst) Name() string { return "swap-first" }

func (swapFirst) Repair(c []model.FixSet) ([]repair.Assignment, error) {
	for _, fs := range c {
		for _, f := range fs.Fixes {
			if f.Op != model.OpEQ || !f.RightIsCell {
				continue
			}
			l, r := f.Left(), f.RightCell()
			return []repair.Assignment{
				{TupleID: l.TupleID, Col: l.Col, Value: r.Value},
				{TupleID: r.TupleID, Col: r.Col, Value: l.Value},
			}, nil
		}
	}
	return nil, nil
}

// flat makes an algorithm a Fitter whose Fit learns nothing: a learning
// algorithm keeps the flat hand-off, so a Clean with it repairs exactly as
// the algorithm does through RepairParallel.
type flat struct{ repair.Algorithm }

func (flat) Fit(*model.Relation, []model.FixSet, engine.Observer) error { return nil }

// blockRounds runs Clean on a traced context and counts its parallel
// repair rounds by path: a round by block reports its task count on the
// components span, a flat round its component count.
func blockRounds(t *testing.T, rs []*core.Rule, rel *model.Relation, opts ...Option) (res *Result, byBlock, flat int) {
	t.Helper()
	tr := trace.New()
	ctx, err := engine.NewContext(engine.Config{Parallelism: 3, Observer: tr})
	if err != nil {
		t.Fatal(err)
	}
	res, err = mustCleaner(t, ctx, rs, opts...).Clean(rel)
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	for _, s := range tr.Spans() {
		if s.Kind() != engine.SpanRepair || s.Name() != "components" {
			continue
		}
		if _, ok := s.AttrValue(engine.AttrPartitions); ok {
			byBlock++
		} else {
			flat++
		}
	}
	return res, byBlock, flat
}

// TestCleanByBlockMatchesFlat checks that a Clean whose parallel repair
// takes its components from detection's blocks repairs the relation, and
// reports, exactly as the flat hand-off does: one-FD rule sets over seeded
// TaxA relations, with a component split threshold, and with an algorithm
// and a freeze threshold that leave fix sets unusable in later rounds. It
// also pins that these Cleans take the block path.
func TestCleanByBlockMatchesFlat(t *testing.T) {
	fd := func(rel *model.Relation, spec string) *core.Rule {
		f, err := rules.ParseFD("fd", spec)
		if err != nil {
			t.Fatal(err)
		}
		r, err := f.Compile(rel.Schema)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	ec := func() repair.Algorithm { return &repair.EquivalenceClass{} }
	for _, seed := range []int64{1, 2, 5} {
		rel := datagen.TaxA(2000, 0.15, seed).Dirty
		for _, spec := range []string{"zipcode -> city", "zipcode -> city, state"} {
			for _, o := range []struct {
				name  string
				algo  func() repair.Algorithm
				ropts repair.Options
				extra []Option
			}{
				{"default", ec, repair.Options{Parallelism: 2}, nil},
				{"split", ec, repair.Options{Parallelism: 3, MaxComponentSize: 6}, nil},
				{"swap-freeze", func() repair.Algorithm { return swapFirst{} }, repair.Options{Parallelism: 2}, []Option{WithFreezeAfter(1)}},
			} {
				name := fmt.Sprintf("seed %d %q %s", seed, spec, o.name)
				rs := []*core.Rule{fd(rel, spec)}
				opts := append([]Option{WithParallelRepair(o.ropts), WithAlgorithm(o.algo())}, o.extra...)
				got, byBlock, flatRounds := blockRounds(t, rs, rel, opts...)
				if byBlock == 0 || flatRounds != 0 {
					t.Fatalf("%s: %d rounds by block, %d flat; want every round by block", name, byBlock, flatRounds)
				}
				opts[1] = WithAlgorithm(flat{o.algo()})
				want, byBlock, _ := blockRounds(t, rs, rel, opts...)
				if byBlock != 0 {
					t.Fatalf("%s: a learning algorithm took the block path", name)
				}
				sameClean(t, name, got, want)
			}
		}
	}
}

// TestCleanTwoRulesIsFlat pins that two live rules keep the flat hand-off.
func TestCleanTwoRulesIsFlat(t *testing.T) {
	rel := datagen.TaxA(600, 0.15, 1).Dirty
	var rs []*core.Rule
	for _, spec := range []string{"zipcode -> city", "zipcode -> state"} {
		f, err := rules.ParseFD("fd-"+spec[len(spec)-4:], spec)
		if err != nil {
			t.Fatal(err)
		}
		r, err := f.Compile(rel.Schema)
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, r)
	}
	_, byBlock, flat := blockRounds(t, rs, rel, WithParallelRepair(repair.Options{Parallelism: 2}))
	if byBlock != 0 || flat == 0 {
		t.Fatalf("two rules: %d rounds by block, %d flat; want every round flat", byBlock, flat)
	}
}

// sameClean fails unless two Cleans repaired the same cells to the same
// values and report the same loop: timings and engine counters aside.
func sameClean(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if got.Clean.Len() != want.Clean.Len() {
		t.Fatalf("%s: %d tuples, want %d", name, got.Clean.Len(), want.Clean.Len())
	}
	for i, tu := range got.Clean.Tuples {
		if w := want.Clean.Tuples[i]; tu.ID != w.ID || !slices.Equal(tu.Cells, w.Cells) {
			t.Fatalf("%s: tuple %d is %v, want %v", name, i, tu, w)
		}
	}
	g, w := got.Report(), want.Report()
	if g.Iterations != w.Iterations || g.InitialViolations != w.InitialViolations ||
		g.RemainingViolations != w.RemainingViolations || g.UpdatesApplied != w.UpdatesApplied ||
		g.FrozenCells != w.FrozenCells || g.Flush != w.Flush || g.Tuples != w.Tuples {
		t.Fatalf("%s: report %+v, want %+v", name, g, w)
	}
	if len(g.RepairRounds) != len(w.RepairRounds) {
		t.Fatalf("%s: %d repair rounds, want %d", name, len(g.RepairRounds), len(w.RepairRounds))
	}
	for i := range g.RepairRounds {
		if *g.RepairRounds[i] != *w.RepairRounds[i] {
			t.Fatalf("%s: repair round %d %+v, want %+v", name, i+1, *g.RepairRounds[i], *w.RepairRounds[i])
		}
	}
}

// cleanBytesPerViolation is the bytes one Clean of rel under φ1 allocates
// per initial violation, with parallel equivalence-class repair at 2 on a
// context of parallelism 2: the least of three runs, so a pool emptied by
// a collection does not count.
func cleanBytesPerViolation(t *testing.T, rel *model.Relation) float64 {
	t.Helper()
	cleaner := mustCleaner(t, engine.New(2), []*core.Rule{fdZipCity(t, rel)},
		WithAlgorithm(&repair.EquivalenceClass{}),
		WithParallelRepair(repair.Options{Parallelism: 2}))
	best := 0.0
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := cleaner.Clean(rel)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		b := float64(after.TotalAlloc-before.TotalAlloc) / float64(res.Report().InitialViolations)
		if best == 0 || b < best {
			best = b
		}
	}
	return best
}

// TestCleanFDBytesPerViolation pins what a one-FD Clean allocates per
// initial violation on a fixed TaxA relation, built before the
// measurement: ≈ 353 B. Before repair read detection's blocks it was
// ≈ 554 B, of which the flat hand-off (one FixSet and one Violation per
// violation) is 104 B; the bound sits below 554 − 104.
func TestCleanFDBytesPerViolation(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled objects")
	}
	rel := datagen.TaxA(20000, 0.1, 1).Dirty
	got := cleanBytesPerViolation(t, rel)
	const bound = 420
	t.Logf("%.0f B per initial violation", got)
	if got > bound {
		t.Errorf("Clean allocates %.0f B per initial violation, bound %d", got, bound)
	}
}
