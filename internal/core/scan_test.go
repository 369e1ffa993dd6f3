package core

import (
	"testing"

	"bigdansing/internal/engine"
	"bigdansing/internal/model"
)

// keepZip is a top-level scope: every use of it is one func value.
func keepZip(t model.Tuple) []model.Tuple {
	if t.Cell(1).Equal(model.I(90210)) {
		return []model.Tuple{t}
	}
	return nil
}

// TestScanIdentityIsTheFuncValue: two scoped rules share a scan only when
// their scopes are one func value. Closures of one func literal share a code
// pointer, so keying scans by it handed the second rule the first's scoped
// stream.
func TestScanIdentityIsTheFuncValue(t *testing.T) {
	keep := func(zip int64) ScopeFunc {
		return func(t model.Tuple) []model.Tuple {
			if t.Cell(1).Equal(model.I(zip)) {
				return []model.Tuple{t}
			}
			return nil
		}
	}
	// flag reports every tuple its scope keeps as a one-cell violation.
	flag := func(id string, scope ScopeFunc) *Rule {
		return &Rule{ID: id, Scope: scope, Unary: true, Detect: func(it Item, out *Output) {
			u := it.One()
			out.Emit(id, model.NewCell(u.ID, 1, u.Cell(1)))
		}}
	}
	// Built in a loop, so one call site (inlined or not) makes both closures.
	var captures []ScopeFunc
	for _, zip := range []int64{90210, 10011} {
		captures = append(captures, keep(zip))
	}
	shared := keep(90210)
	cases := []struct {
		name       string
		scopes     []ScopeFunc
		violations int // 3 tuples of exampleTax lie in 90210, 1 in 10011
		shared     int
	}{
		{"one factory, two captures", captures, 3 + 1, 0},
		{"one closure reused", []ScopeFunc{shared, shared}, 3 + 3, 1},
		{"one top-level func", []ScopeFunc{keepZip, keepZip}, 3 + 3, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var rs []*Rule
			for i, s := range c.scopes {
				rs = append(rs, flag(string(rune('a'+i)), s))
			}
			rel := exampleTax()
			lp, err := PlanRules(rs, rel)
			if err != nil {
				t.Fatal(err)
			}
			if got := Consolidate(lp).SharedScans; got != c.shared {
				t.Errorf("shared scans = %d, want %d", got, c.shared)
			}
			res, err := DetectRules(engine.New(2), rs, rel)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Violations) != c.violations {
				t.Errorf("violations = %d, want %d: %v", len(res.Violations), c.violations, res.Violations)
			}
		})
	}
}
