package model

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"os"
)

// ReadCSV parses CSV text into a Relation using the given schema. If
// hasHeader is true the first record is skipped. Tuple IDs are assigned
// sequentially from startID. Short rows are padded with nulls and long rows
// truncated, mirroring the forgiving parsers BigDansing ships for raw input.
//
// Cells are parsed into slabs that double from csvMinSlabRows up to
// csvSlabRows rows, and each tuple's Cells is its row of a slab, capped at
// the schema width, so an append to one tuple's cells never writes into the
// next. Tuples is built once, at its final size, after the last record.
func ReadCSV(r io.Reader, name string, schema *Schema, hasHeader bool, startID int64) (*Relation, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	w := schema.Len()
	slabs := make([][]Value, 0, 16) // each holds whole rows, w cells apiece
	rows, room := 0, 0
	first := true
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("model: reading csv for %s: %w", name, err)
		}
		if first && hasHeader {
			first = false
			continue
		}
		first = false
		if room == 0 {
			room = min(max(rows, csvMinSlabRows), csvSlabRows)
			slabs = append(slabs, make([]Value, 0, room*w))
		}
		slab := slabs[len(slabs)-1]
		for i := 0; i < w; i++ {
			v := Null()
			if i < len(rec) {
				v = Parse(rec[i], schema.Attr(i).Kind)
			}
			slab = append(slab, v)
		}
		slabs[len(slabs)-1] = slab
		room--
		rows++
	}
	rel := &Relation{Name: name, Schema: schema, Tuples: make([]Tuple, rows)}
	for i := range rel.Tuples {
		rel.Tuples[i].ID = startID + int64(i)
	}
	i := 0
	for _, slab := range slabs {
		for ; len(slab) > 0; slab = slab[w:] {
			rel.Tuples[i].Cells = slab[:w:w]
			i++
		}
	}
	return rel, nil
}

// ReadCSV's cell slabs start at csvMinSlabRows rows, so a small input
// allocates little, and stop doubling at csvSlabRows.
const csvMinSlabRows, csvSlabRows = 64, 1024

// ReadCSVFile opens path and parses it with ReadCSV.
func ReadCSVFile(path, name string, schema *Schema, hasHeader bool) (*Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("model: open %s: %w", path, err)
	}
	defer f.Close()
	return ReadCSV(f, name, schema, hasHeader, 0)
}

// WriteCSV renders the relation as CSV. If withHeader is true the attribute
// names are written first. A null cell renders as an empty field, as does
// the empty string; a record of one empty field is written as "", because
// encoding/csv would emit an empty line, which readers skip.
func WriteCSV(w io.Writer, rel *Relation, withHeader bool) error {
	bw := bufio.NewWriter(w)
	cw := csv.NewWriter(bw)
	if withHeader {
		if err := cw.Write(rel.Schema.Names()); err != nil {
			return err
		}
	}
	row := make([]string, rel.Schema.Len())
	for _, t := range rel.Tuples {
		for i := range row {
			row[i] = t.Cell(i).String()
		}
		if len(row) == 1 && row[0] == "" {
			cw.Flush()
			if _, err := bw.WriteString("\"\"\n"); err != nil {
				return err
			}
			continue
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteCSVFile writes the relation to path, creating or truncating it.
func WriteCSVFile(path string, rel *Relation, withHeader bool) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("model: create %s: %w", path, err)
	}
	if err := WriteCSV(f, rel, withHeader); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
