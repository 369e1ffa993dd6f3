package rules

import (
	"fmt"
	"strings"

	"bigdansing/internal/core"
	"bigdansing/internal/model"
	"bigdansing/internal/simfn"
)

// DedupConfig configures a UDF deduplication rule like the evaluation's
// φ4/φ5: two rows are duplicates when their names are close under
// Levenshtein similarity and (optionally) their phones are close too.
type DedupConfig struct {
	// ID names the rule.
	ID string
	// NameAttr is the attribute compared with Levenshtein similarity.
	NameAttr string
	// PhoneAttr, when non-empty, must also be similar.
	PhoneAttr string
	// NameThreshold is the minimum normalized similarity (default 0.8).
	NameThreshold float64
	// PhoneThreshold is the minimum phone similarity (default 0.7).
	PhoneThreshold float64
	// BlockBySoundex keys candidate blocks on Soundex(name); otherwise the
	// block key is the lower-cased first three characters. Blocking is what
	// makes UDF dedup scale (Figure 12(a)'s full-API vs Detect-only gap).
	BlockBySoundex bool
}

// DedupRule builds the deduplication rule over the given schema. The
// generated GenFix proposes equating both tuples' name and phone so that
// one of them disappears under set semantics, as Section 2.1 describes for
// rule φU.
func DedupRule(cfg DedupConfig, schema *model.Schema) (*core.Rule, error) {
	nameCol, ok := schema.Index(cfg.NameAttr)
	if !ok {
		return nil, fmt.Errorf("rules: dedup %s: unknown attribute %q", cfg.ID, cfg.NameAttr)
	}
	phoneCol := -1
	if cfg.PhoneAttr != "" {
		phoneCol, ok = schema.Index(cfg.PhoneAttr)
		if !ok {
			return nil, fmt.Errorf("rules: dedup %s: unknown attribute %q", cfg.ID, cfg.PhoneAttr)
		}
	}
	nameTh := cfg.NameThreshold
	if nameTh == 0 {
		nameTh = 0.8
	}
	phoneTh := cfg.PhoneThreshold
	if phoneTh == 0 {
		phoneTh = 0.7
	}
	ruleID := cfg.ID

	return &core.Rule{
		ID: ruleID,
		Block: func(t model.Tuple) model.Value {
			name := t.Cell(nameCol).String()
			if cfg.BlockBySoundex {
				return model.S(simfn.Soundex(name))
			}
			name = strings.ToLower(name)
			if len(name) > 3 {
				name = name[:3]
			}
			return model.S(name)
		},
		Symmetric: true,
		Detect: func(it core.Item) []model.Violation {
			l, r := it.Left(), it.Right()
			ln, rn := l.Cell(nameCol).String(), r.Cell(nameCol).String()
			if simfn.LevenshteinSimilarity(ln, rn) < nameTh {
				return nil
			}
			cells := []model.Cell{
				model.NewCell(l.ID, nameCol, l.Cell(nameCol)),
				model.NewCell(r.ID, nameCol, r.Cell(nameCol)),
			}
			if phoneCol >= 0 {
				lp, rp := l.Cell(phoneCol).String(), r.Cell(phoneCol).String()
				if simfn.LevenshteinSimilarity(lp, rp) < phoneTh {
					return nil
				}
				cells = append(cells,
					model.NewCell(l.ID, phoneCol, l.Cell(phoneCol)),
					model.NewCell(r.ID, phoneCol, r.Cell(phoneCol)))
			}
			return []model.Violation{model.NewViolation(ruleID, cells...)}
		},
		GenFix: func(v model.Violation) []model.Fix {
			// One equality per attribute, each on its adjacent (left, right)
			// pair of the violation's cells.
			var fixes []model.Fix
			for i := 0; i+1 < len(v.Cells); i += 2 {
				fixes = append(fixes, model.CellFixOf(v.Cells[i:i+2:i+2], model.OpEQ))
			}
			return fixes
		},
	}, nil
}
