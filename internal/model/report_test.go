package model

import (
	"bytes"
	"strings"
	"testing"
)

func sampleFixSets() []FixSet {
	c1 := NewCell(1, 2, S("LA"))
	c2 := NewCell(4, 2, S("SF"))
	c3 := NewCell(9, 5, F(12.5))
	return []FixSet{
		{
			Violation: NewViolation("phi1", c1, c2),
			Fixes:     []Fix{NewCellFix(c1, OpEQ, c2)},
		},
		{
			Violation: NewViolation("cap", c3),
			Fixes:     []Fix{NewConstFix(c3, OpLE, F(10))},
		},
		{
			Violation: NewViolation("detectOnly", c1), // no fixes
		},
	}
}

func TestWriteViolationsCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteViolationsCSV(&buf, MustParseSchema("name,zipcode:int,city,state,salary:float,rate:float"), sampleFixSets()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Header + 2 cells + 1 cell + 1 cell.
	if len(lines) != 5 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "rule,violation,tuple") {
		t.Errorf("header = %s", lines[0])
	}
	if !strings.Contains(out, "phi1") || !strings.Contains(out, "12.5") {
		t.Error("report should carry rule ids and values")
	}
}
