package rules

import (
	"fmt"

	"bigdansing/internal/core"
	"bigdansing/internal/model"
	"bigdansing/internal/simfn"
)

// CountyRule builds rule φU of Example 1: two tuples refer to the same
// individual when their names are similar and their cities fall in the same
// county, looked up in a mapping table. It demonstrates a procedural rule
// that no declarative formalism expresses (Section 1).
func CountyRule(id string, schema *model.Schema, nameAttr, cityAttr string, county map[string]string, threshold float64) (*core.Rule, error) {
	nameCol, ok := schema.Index(nameAttr)
	if !ok {
		return nil, fmt.Errorf("rules: %s: unknown attribute %q", id, nameAttr)
	}
	cityCol, ok := schema.Index(cityAttr)
	if !ok {
		return nil, fmt.Errorf("rules: %s: unknown attribute %q", id, cityAttr)
	}
	if threshold == 0 {
		threshold = 0.8
	}
	getCounty := func(city string) string {
		if c, ok := county[city]; ok {
			return c
		}
		return city // unknown cities are their own county
	}
	return &core.Rule{
		ID: id,
		// Block on county so only same-county candidates pair up.
		Block: func(t model.Tuple) model.Value {
			return model.S(getCounty(t.Cell(cityCol).String()))
		},
		Symmetric: true,
		Detect: func(it core.Item) []model.Violation {
			l, r := it.Left(), it.Right()
			if simfn.LevenshteinSimilarity(l.Cell(nameCol).String(), r.Cell(nameCol).String()) < threshold {
				return nil
			}
			if getCounty(l.Cell(cityCol).String()) != getCounty(r.Cell(cityCol).String()) {
				return nil
			}
			return []model.Violation{model.NewViolation(id,
				model.NewCell(l.ID, nameCol, l.Cell(nameCol)),
				model.NewCell(r.ID, nameCol, r.Cell(nameCol)),
				model.NewCell(l.ID, cityCol, l.Cell(cityCol)),
				model.NewCell(r.ID, cityCol, r.Cell(cityCol)),
			)}
		},
		GenFix: func(v model.Violation) []model.Fix {
			// Propose assigning the same name so one tuple subsumes the
			// other under set semantics.
			return []model.Fix{model.NewCellFix(v.Cells[1], model.OpEQ, v.Cells[0])}
		},
	}, nil
}
