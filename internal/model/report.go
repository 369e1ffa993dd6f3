package model

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
)

// Violation report I/O. Section 3.2: "If no GenFix operator is provided,
// the output of the Detect operator is written to disk." Two formats are
// supported: a human-readable CSV (one row per violated cell) and the
// compact binary fix-set stream used between pipeline stages.

// WriteViolationsCSV renders fix sets as CSV rows:
// rule,violation#,tupleID,column,attribute,value,fixes. The attribute
// column and the cells in the fixes column are named from schema, the
// schema of the relation the fix sets were detected on.
func WriteViolationsCSV(w io.Writer, schema *Schema, sets []FixSet) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"rule", "violation", "tuple", "col", "attr", "value", "fixes"}); err != nil {
		return err
	}
	for i, fs := range sets {
		fixes := ""
		for j, f := range fs.Fixes {
			if j > 0 {
				fixes += "; "
			}
			fixes += fixString(schema, f)
		}
		for _, c := range fs.Violation.Cells {
			row := []string{
				fs.Violation.RuleID,
				strconv.Itoa(i),
				strconv.FormatInt(c.TupleID, 10),
				strconv.Itoa(c.Col),
				schema.Name(c.Col),
				c.Value.String(),
				fixes,
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// fixString renders f for the report, naming its cells from the schema:
// "t<id>.<attr>=<value> <op> <right>", the right operand a cell or a
// constant.
func fixString(schema *Schema, f Fix) string {
	cell := func(c Cell) string { return fmt.Sprintf("t%d.%s=%s", c.TupleID, schema.Name(c.Col), c.Value) }
	right := f.Const().String()
	if f.RightIsCell {
		right = cell(f.RightCell())
	}
	return cell(f.Left()) + " " + f.Op.String() + " " + right
}

// WriteViolationsFile writes a CSV violation report to path.
func WriteViolationsFile(path string, schema *Schema, sets []FixSet) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("model: create %s: %w", path, err)
	}
	if err := WriteViolationsCSV(f, schema, sets); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
