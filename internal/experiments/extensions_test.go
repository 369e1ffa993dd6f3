package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestExtConsolidationRuns(t *testing.T) {
	tables, err := ExtConsolidation(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	if len(tbl.Get("consolidated").Points) != 3 {
		t.Errorf("points = %d", len(tbl.Get("consolidated").Points))
	}
}

func TestExtCombinerSpillsLess(t *testing.T) {
	tables, err := ExtCombiner(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	with := tbl.Get("with-combiner")
	without := tbl.Get("without-combiner")
	lastX := with.Points[len(with.Points)-1].X
	if with.Value(lastX) >= without.Value(lastX) {
		t.Errorf("combiner spill %v should undercut plain %v",
			with.Value(lastX), without.Value(lastX))
	}
}

func TestTableWriteCSV(t *testing.T) {
	tbl := &Table{ID: "x", XLabel: "rows",
		Series: []Series{
			{Name: "a", Points: []Point{{X: 1, Value: 0.5}, {X: 2, Value: 1}}},
			{Name: "b", Points: []Point{{X: 1, Value: Excluded}}},
		}}
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "rows,a,b" {
		t.Errorf("header = %s", lines[0])
	}
	if lines[1] != "1,0.5," {
		t.Errorf("row 1 = %s (excluded cell should be empty)", lines[1])
	}
	if lines[2] != "2,1," {
		t.Errorf("row 2 = %s", lines[2])
	}
}
