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
// rule,violation#,tupleID,column,attribute,value,fixes.
func WriteViolationsCSV(w io.Writer, sets []FixSet) error {
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
			fixes += f.String()
		}
		for _, c := range fs.Violation.Cells {
			row := []string{
				fs.Violation.RuleID,
				strconv.Itoa(i),
				strconv.FormatInt(c.TupleID, 10),
				strconv.Itoa(c.Col),
				c.Attr,
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

// WriteViolationsFile writes a CSV violation report to path.
func WriteViolationsFile(path string, sets []FixSet) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("model: create %s: %w", path, err)
	}
	if err := WriteViolationsCSV(f, sets); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
