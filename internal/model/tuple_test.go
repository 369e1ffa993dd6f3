package model

import (
	"bytes"
	"strings"
	"testing"
)

func TestTupleCellBounds(t *testing.T) {
	tp := NewTuple(1, S("a"), I(2))
	if tp.Cell(0) != S("a") || tp.Cell(1) != I(2) {
		t.Error("in-range cells")
	}
	if tp.Cell(-1).Kind != KindNull || tp.Cell(2).Kind != KindNull {
		t.Error("out-of-range cells should be null")
	}
}

func TestRelationApply(t *testing.T) {
	s := MustParseSchema("a,b")
	r := NewRelation("r", s)
	r.Append(NewTuple(10, S("x"), S("y")), NewTuple(11, S("p"), S("q")))
	idx := r.ByID()
	if !r.Apply(idx, 11, 0, S("new")) {
		t.Fatal("apply failed")
	}
	if r.Tuples[1].Cell(0) != S("new") {
		t.Error("apply did not update")
	}
	if r.Apply(idx, 99, 0, S("no")) {
		t.Error("apply with unknown id should fail")
	}
	if r.Apply(idx, 10, 5, S("no")) {
		t.Error("apply with bad column should fail")
	}
}

// TestRelationCloneIsDeep checks that a clone's cells alias neither the
// source's nor each other's: writing every clone cell leaves the source as
// it was, and each clone tuple's Cells is capped at its own length, so an
// append to one never writes into the next tuple of the shared slab.
func TestRelationCloneIsDeep(t *testing.T) {
	s := MustParseSchema("a,b:int")
	r := NewRelation("r", s)
	r.Append(NewTuple(0, S("x"), I(1)), NewTuple(1, S("y")), NewTuple(2, S("z"), I(3)))
	c := r.Clone()
	for i, tp := range c.Tuples {
		if tp.ID != r.Tuples[i].ID || len(tp.Cells) != len(r.Tuples[i].Cells) || cap(tp.Cells) != len(tp.Cells) {
			t.Fatalf("clone tuple %d is %v with cap %d, source %v", i, tp, cap(tp.Cells), r.Tuples[i])
		}
		for j := range tp.Cells {
			tp.Cells[j] = S("changed")
		}
	}
	if got := r.Tuples[0].String() + r.Tuples[1].String() + r.Tuples[2].String(); got != "t0(x, 1)t1(y)t2(z, 3)" {
		t.Errorf("clone writes reached the source: %s", got)
	}
	_ = append(c.Tuples[1].Cells, S("appended"))
	if c.Tuples[2].Cell(0) != S("changed") {
		t.Errorf("an append to one clone tuple wrote the next: %v", c.Tuples[2])
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := MustParseSchema("name,zip:int,rate:float")
	in := "name,zip,rate\nAnnie,10011,3.1\nLaure,90210,5\n"
	rel, err := ReadCSV(strings.NewReader(in), "tax", s, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Fatalf("rows = %d", rel.Len())
	}
	if rel.Tuples[0].ID != 0 || rel.Tuples[1].ID != 1 {
		t.Error("sequential ids")
	}
	if rel.Tuples[1].Cell(1) != I(90210) {
		t.Errorf("typed parse: %v", rel.Tuples[1].Cell(1))
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, rel, true); err != nil {
		t.Fatal(err)
	}
	rel2, err := ReadCSV(bytes.NewReader(buf.Bytes()), "tax", s, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rel2.Len() != rel.Len() {
		t.Fatal("round trip row count")
	}
	for i := range rel.Tuples {
		for j := 0; j < s.Len(); j++ {
			if !rel.Tuples[i].Cell(j).Equal(rel2.Tuples[i].Cell(j)) {
				t.Errorf("cell %d,%d mismatch: %v vs %v", i, j, rel.Tuples[i].Cell(j), rel2.Tuples[i].Cell(j))
			}
		}
	}
}

// TestWriteCSVRecordsSurvive: every record WriteCSV writes is read back by
// ReadCSV, including a one-column record whose only field is empty.
func TestWriteCSVRecordsSurvive(t *testing.T) {
	cases := []struct {
		name   string
		schema string
		rows   [][]Value
	}{
		{"two columns", "name,zip:int", [][]Value{{S("a"), I(1)}, {S(""), Null()}, {S(""), I(3)}}},
		{"one column null", "zip:int", [][]Value{{I(7)}, {Null()}, {I(9)}}},
		{"one column empty string", "name", [][]Value{{S("a")}, {S("")}, {S("b")}}},
		{"one column all empty", "name", [][]Value{{S("")}, {S("")}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := MustParseSchema(c.schema)
			rel := NewRelation("r", s)
			for i, cells := range c.rows {
				rel.Append(Tuple{ID: int64(i), Cells: cells})
			}
			for _, header := range []bool{false, true} {
				var buf bytes.Buffer
				if err := WriteCSV(&buf, rel, header); err != nil {
					t.Fatal(err)
				}
				back, err := ReadCSV(bytes.NewReader(buf.Bytes()), "r", s, header, 0)
				if err != nil {
					t.Fatal(err)
				}
				if back.Len() != rel.Len() {
					t.Fatalf("header=%v: wrote %d rows as %q, read back %d", header, rel.Len(), buf.String(), back.Len())
				}
				for i, tp := range rel.Tuples {
					for j, v := range tp.Cells {
						if got := back.Tuples[i].Cells[j]; got != v {
							t.Errorf("header=%v: cell %d,%d = %#v, wrote %#v", header, i, j, got, v)
						}
					}
				}
			}
		})
	}
}

func TestCSVShortRowsPadded(t *testing.T) {
	s := MustParseSchema("a,b,c")
	rel, err := ReadCSV(strings.NewReader("1,2\n"), "r", s, false, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Tuples[0].ID != 5 {
		t.Error("startID respected")
	}
	if rel.Tuples[0].Cell(2).Kind != KindNull {
		t.Error("short row should pad with null")
	}
}
