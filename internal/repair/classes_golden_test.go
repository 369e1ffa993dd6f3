package repair_test

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bigdansing/internal/engine"
	"bigdansing/internal/model"
	"bigdansing/internal/probrepair"
	"bigdansing/internal/repair"
)

var updateClasses = flag.Bool("update-classes", false, "rewrite testdata/classes.golden with the current assignments")

// classComponents is the number of seeded components the golden covers.
const classComponents = 1200

// randomClassComponent draws one component over a pool of 12 tuples × 3
// columns, so cells repeat across fix sets. Violations have one to three
// cells; each fix set has up to four fixes: an equality between two of its
// cells, an equality with a cell outside the violation, an equality with a
// constant (a CFD pattern), or a non-equality against a cell or a constant.
// Every cell keeps one value, drawn from four, so votes often tie.
func randomClassComponent(r *rand.Rand) []model.FixSet {
	vals := []model.Value{model.S("a"), model.S("b"), model.I(1), model.I(2)}
	value := map[model.CellKey]model.Value{}
	cell := func() model.Cell {
		k := model.CellKey{TupleID: int64(r.Intn(12)), Col: r.Intn(3)}
		v, ok := value[k]
		if !ok {
			v = vals[r.Intn(len(vals))]
			value[k] = v
		}
		return model.NewCell(k.TupleID, k.Col, v)
	}
	konst := func() model.Value { return append(vals, model.S("c"))[r.Intn(len(vals)+1)] }
	fixSets := make([]model.FixSet, 1+r.Intn(8))
	for i := range fixSets {
		vc := make([]model.Cell, 1+r.Intn(3))
		for j := range vc {
			vc[j] = cell()
		}
		fs := model.FixSet{Violation: model.NewViolation("r", vc...)}
		for range r.Intn(5) {
			left := vc[r.Intn(len(vc))]
			var f model.Fix
			switch r.Intn(6) {
			case 0, 1:
				f = model.NewCellFix(left, model.OpEQ, vc[r.Intn(len(vc))])
			case 2:
				f = model.NewCellFix(left, model.OpEQ, cell())
			case 3:
				f = model.NewConstFix(left, model.OpEQ, konst())
			case 4:
				f = model.NewCellFix(left, []model.Op{model.OpLT, model.OpNEQ}[r.Intn(2)], cell())
			default:
				f = model.NewConstFix(left, model.OpNEQ, konst())
			}
			fs.Fixes = append(fs.Fixes, f)
		}
		fixSets[i] = fs
	}
	return fixSets
}

// digest is a short, stable fingerprint of one algorithm's assignments.
func digest(as []repair.Assignment) string {
	h := fnv.New32a()
	for _, a := range as {
		fmt.Fprintf(h, "%s;", a)
	}
	return fmt.Sprintf("%08x", h.Sum32())
}

// TestClassConsumersMatchGolden pins the assignments of every algorithm
// that builds equivalence classes — the centralized and the distributed
// equivalence-class repairs and the probabilistic backend — on seeded
// components against recorded digests. A change to how classes are formed,
// which cells join them or which constants they carry moves some digest.
// The distributed repair is the centralized one run as two map-reduce jobs
// (Section 5.2), so their digests must be equal on every component.
func TestClassConsumersMatchGolden(t *testing.T) {
	algos := []repair.Algorithm{
		&repair.EquivalenceClass{},
		&repair.DistributedEquivalenceClass{Ctx: engine.New(2)},
		&probrepair.Prob{Samples: probrepair.DefaultSamples, Seed: 3},
	}
	var lines []string
	assigned := make([]int, len(algos))
	for seed := range int64(classComponents) {
		comp := randomClassComponent(rand.New(rand.NewSource(seed)))
		fields := []string{fmt.Sprint(seed)}
		for i, algo := range algos {
			as, err := algo.Repair(comp)
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, algo.Name(), err)
			}
			assigned[i] += len(as)
			fields = append(fields, digest(as))
		}
		if fields[1] != fields[2] {
			t.Errorf("component %d: eq digest %s, mr digest %s", seed, fields[1], fields[2])
		}
		lines = append(lines, strings.Join(fields, " "))
	}
	for i, n := range assigned {
		if n == 0 {
			t.Fatalf("%s assigned nothing on %d components; the golden would pin nothing", algos[i].Name(), classComponents)
		}
	}
	path := filepath.Join("testdata", "classes.golden")
	if *updateClasses {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	i := 0
	for ; sc.Scan(); i++ {
		if i >= len(lines) {
			t.Fatalf("golden has more than %d components", len(lines))
		}
		if sc.Text() != lines[i] {
			t.Errorf("component %s: digests (eq, mr, prob) %s, golden %s",
				strings.Fields(lines[i])[0], lines[i], sc.Text())
		}
	}
	if i != len(lines) {
		t.Fatalf("golden has %d components, want %d", i, len(lines))
	}
}
