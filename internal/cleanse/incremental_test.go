package cleanse

import (
	"bytes"
	"testing"

	"bigdansing/internal/core"
	"bigdansing/internal/datagen"
	"bigdansing/internal/engine"
	"bigdansing/internal/model"
	"bigdansing/internal/repair"
	"bigdansing/internal/rules"
)

// TestCleanDetectionMatchesFull: Clean and sessions detect through one
// incremental detector, whatever the rule shapes. For block-incremental
// rules, fallback rules (OCJoin), both, and a scoped unary rule: Clean's
// first round must count what a full core.DetectRules pass counts, a
// converged Clean must leave nothing a full pass finds, and a session fed
// the same tuples in four batches must end byte-identical to Clean.
func TestCleanDetectionMatchesFull(t *testing.T) {
	// TaxB's errors are in rate; every ninth city gets a typo for the FDs.
	rel := datagen.TaxB(200, 0.05, 3).Dirty
	for i := 0; i < rel.Len(); i += 9 {
		rel.Tuples[i].Cells[2] = model.S(rel.Tuples[i].Cells[2].String() + "_typo")
	}
	fd := func(id, spec string) *core.Rule {
		f, err := rules.ParseFD(id, spec)
		if err != nil {
			t.Fatal(err)
		}
		r, err := f.Compile(rel.Schema)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	scopedUnary := func() *core.Rule {
		dc, err := rules.ParseDC("lowRate", "t1.rate < 5")
		if err != nil {
			t.Fatal(err)
		}
		r, err := dc.Compile(rel.Schema)
		if err != nil {
			t.Fatal(err)
		}
		r.Scope = func(tp model.Tuple) []model.Tuple {
			if tp.ID%2 == 0 {
				return []model.Tuple{tp}
			}
			return nil
		}
		return r
	}
	cases := []struct {
		name  string
		rules func() []*core.Rule
	}{
		{"one FD", func() []*core.Rule { return []*core.Rule{fd("phi1", "zipcode -> city")} }},
		{"two FDs", func() []*core.Rule {
			return []*core.Rule{fd("phi1", "zipcode -> city"), fd("phi1b", "zipcode -> state")}
		}},
		{"DC only", func() []*core.Rule { return []*core.Rule{dcSalaryRate(t, rel.Schema)} }},
		{"FD + DC", func() []*core.Rule {
			return []*core.Rule{fd("phi1", "zipcode -> city"), dcSalaryRate(t, rel.Schema)}
		}},
		{"scoped unary DC", func() []*core.Rule { return []*core.Rule{scopedUnary()} }},
	}
	csv := func(r *model.Relation) []byte {
		var buf bytes.Buffer
		if err := model.WriteCSV(&buf, r, true); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			full, err := core.DetectRules(engine.New(4), tc.rules(), rel)
			if err != nil {
				t.Fatal(err)
			}
			res, err := mustCleaner(t, engine.New(4), tc.rules(), WithParallelRepair(repair.Options{})).Clean(rel)
			if err != nil {
				t.Fatal(err)
			}
			rep := res.Report()
			if rep.InitialViolations == 0 {
				t.Fatal("the input should violate the rules")
			}
			if rep.InitialViolations != len(full.Violations) {
				t.Errorf("initial violations: Clean %d, full pass %d", rep.InitialViolations, len(full.Violations))
			}
			if rep.RemainingViolations == 0 {
				after, err := core.DetectRules(engine.New(4), tc.rules(), res.Clean)
				if err != nil {
					t.Fatal(err)
				}
				if len(after.Violations) != 0 {
					t.Errorf("Clean converged, but a full pass finds %d violations in its output", len(after.Violations))
				}
			}

			s, err := mustCleaner(t, engine.New(4), tc.rules(), WithParallelRepair(repair.Options{})).Open(rel.Schema)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			const k = 4
			per := rel.Len() / k
			for b := 0; b < k; b++ {
				end := (b + 1) * per
				if b == k-1 {
					end = rel.Len()
				}
				if err := s.Ingest(rel.Tuples[b*per : end]); err != nil {
					t.Fatal(err)
				}
			}
			srep, err := s.Flush()
			if err != nil {
				t.Fatal(err)
			}
			if srep.InitialViolations != rep.InitialViolations || srep.RemainingViolations != rep.RemainingViolations {
				t.Errorf("violations: session %d -> %d, Clean %d -> %d",
					srep.InitialViolations, srep.RemainingViolations, rep.InitialViolations, rep.RemainingViolations)
			}
			if !bytes.Equal(csv(s.Relation()), csv(res.Clean)) {
				t.Error("the session's relation differs from Clean's")
			}
		})
	}
}
