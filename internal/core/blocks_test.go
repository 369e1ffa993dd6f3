package core_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"bigdansing/internal/core"
	"bigdansing/internal/datagen"
	"bigdansing/internal/engine"
	"bigdansing/internal/model"
	"bigdansing/internal/repair"
	"bigdansing/internal/rules"
)

// recordComponents is a repair algorithm that records every component it
// is handed, rendered, and proposes nothing. Run at parallelism 1 it sees
// the components in order.
type recordComponents struct {
	mu    sync.Mutex
	comps [][]string
}

func (r *recordComponents) Name() string { return "record-components" }

func (r *recordComponents) Repair(c []model.FixSet) ([]repair.Assignment, error) {
	lines := make([]string, len(c))
	for i, fs := range c {
		lines[i] = fmt.Sprintf("%v %v", fs.Violation, fs.Fixes)
	}
	r.mu.Lock()
	r.comps = append(r.comps, lines)
	r.mu.Unlock()
	return nil, nil
}

// blockRuleSets are the rule sets of the block-path oracle over TaxA, each
// with whether its view is by block: the FD kernel's rules are; a CFD's
// variable rule has no block kernel, and a unary rule's Detect may repeat a
// violation, so neither source is unique by construction, and two live
// rules are two sources.
func blockRuleSets(t *testing.T, tr *datagen.Truth) []struct {
	name    string
	rules   []*core.Rule
	byBlock bool
} {
	t.Helper()
	schema := tr.Dirty.Schema
	fd := func(id, spec string) *core.Rule {
		f, err := rules.ParseFD(id, spec)
		if err != nil {
			t.Fatal(err)
		}
		r, err := f.Compile(schema)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// The CFD's constant row names the clean city of the first tuple's
	// zipcode, so the tuples of that zipcode with a corrupted city violate it.
	first := tr.Clean.Tuples[0]
	cfd, err := rules.ParseCFD("cfd", fmt.Sprintf("zipcode -> city | _ => _ ; %v => %v", first.Cells[1], first.Cells[2]))
	if err != nil {
		t.Fatal(err)
	}
	cfdRules, err := cfd.Compile(schema)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := rules.ParseDC("lowRate", "t1.rate < 5")
	if err != nil {
		t.Fatal(err)
	}
	unary, err := dc.Compile(schema)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name    string
		rules   []*core.Rule
		byBlock bool
	}{
		{"fd-city", []*core.Rule{fd("phi1", "zipcode -> city")}, true},
		{"fd-city-state", []*core.Rule{fd("phi1", "zipcode -> city, state")}, true},
		{"cfd-var", cfdRules[1:], false},
		{"cfd-const", cfdRules[:1], false},
		{"cfd", cfdRules, false},
		{"unary", []*core.Rule{unary}, false},
		{"two-fds", []*core.Rule{fd("phi1", "zipcode -> city"), fd("phi6", "zipcode -> state")}, false},
	}
}

// TestBlockComponentsMatchFlat is the block path's oracle: for every
// blocked rule, the components repair takes from the detector's violating
// blocks are the components fixSetComponents finds over the assembled
// result — the same fix sets in the same order — whichever fix sets the
// caller keeps, and so are the report and the assignments. It also pins
// which rule sets' views are by block.
func TestBlockComponentsMatchFlat(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		tr := datagen.TaxA(1500, 0.1, seed)
		for _, rs := range blockRuleSets(t, tr) {
			det, err := core.NewIncrementalDetector(engine.New(3), rs.rules)
			if err != nil {
				t.Fatal(err)
			}
			v, err := det.View(tr.Dirty, tr.Dirty.ByID(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if v.ByBlock() != rs.byBlock {
				t.Fatalf("seed %d %s: by block %v, want %v", seed, rs.name, v.ByBlock(), rs.byBlock)
			}
			if v.NumViolations() != len(v.Result().Violations) {
				t.Fatalf("seed %d %s: NumViolations %d, Result lists %d", seed, rs.name, v.NumViolations(), len(v.Result().Violations))
			}
			if len(rs.rules) > 1 {
				continue
			}
			blocks := v
			if !v.ByBlock() {
				blocks = v.SourceBlocks(0)
			}
			n := 0
			for i := range blocks.NumBlocks() {
				n += len(blocks.AppendBlock(nil, i))
			}
			if n == 0 || n != len(v.Result().FixSets) {
				t.Fatalf("seed %d %s: the blocks hold %d fix sets, the result %d", seed, rs.name, n, len(v.Result().FixSets))
			}
			for _, keep := range []struct {
				name string
				fn   func(model.FixSet) bool
			}{
				{"all", func(model.FixSet) bool { return true }},
				// Dropping fix sets splits blocks into several components.
				{"some", func(fs model.FixSet) bool { return fs.Violation.Cells[0].TupleID%3 != 0 }},
			} {
				var kept []model.FixSet
				for _, fs := range v.Result().FixSets {
					if keep.fn(fs) {
						kept = append(kept, fs)
					}
				}
				flat, byBlock := &recordComponents{}, &recordComponents{}
				_, frep, err := repair.RepairParallel(kept, flat, repair.Options{Parallelism: 1})
				if err != nil {
					t.Fatal(err)
				}
				_, brep, err := repair.RepairBlocks(blocks, keep.fn, byBlock, repair.Options{Parallelism: 1})
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("seed %d %s keep %s", seed, rs.name, keep.name)
				if *frep != *brep {
					t.Errorf("%s: report %+v by block, %+v flat", name, *brep, *frep)
				}
				if !slices.EqualFunc(flat.comps, byBlock.comps, slices.Equal) {
					t.Errorf("%s: %d components by block differ from the %d flat ones", name, len(byBlock.comps), len(flat.comps))
				}
				// The assignments of a real algorithm, several workers and
				// a split threshold.
				opts := repair.Options{Parallelism: 3, MaxComponentSize: 8}
				fas, frep, err := repair.RepairParallel(kept, &repair.EquivalenceClass{}, opts)
				if err != nil {
					t.Fatal(err)
				}
				bas, brep, err := repair.RepairBlocks(blocks, keep.fn, &repair.EquivalenceClass{}, opts)
				if err != nil {
					t.Fatal(err)
				}
				if *frep != *brep || !slices.Equal(fas, bas) {
					t.Errorf("%s: equivalence-class repair by block (%+v, %d assignments) differs from flat (%+v, %d)", name, *brep, len(bas), *frep, len(fas))
				}
			}
		}
	}
}

// TestDCViewIsFlat pins that φ2, an OCJoin rule, keeps the flat hand-off:
// its fallback result is not blocks.
func TestDCViewIsFlat(t *testing.T) {
	tr := datagen.TaxB(400, 0.1, 1)
	dc, err := rules.ParseDC("phi2", "t1.salary > t2.salary & t1.rate < t2.rate")
	if err != nil {
		t.Fatal(err)
	}
	r, err := dc.Compile(tr.Dirty.Schema)
	if err != nil {
		t.Fatal(err)
	}
	det, err := core.NewIncrementalDetector(engine.New(2), []*core.Rule{r})
	if err != nil {
		t.Fatal(err)
	}
	v, err := det.View(tr.Dirty, tr.Dirty.ByID(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.NumViolations() == 0 || v.ByBlock() || v.NumBlocks() != 0 {
		t.Fatalf("phi2: %d violations, by block %v over %d blocks; want a flat view", v.NumViolations(), v.ByBlock(), v.NumBlocks())
	}
}
