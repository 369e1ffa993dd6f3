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
func ReadCSV(r io.Reader, name string, schema *Schema, hasHeader bool, startID int64) (*Relation, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	rel := NewRelation(name, schema)
	id := startID
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
		cells := make([]Value, schema.Len())
		for i := 0; i < schema.Len(); i++ {
			if i < len(rec) {
				cells[i] = Parse(rec[i], schema.Attr(i).Kind)
			} else {
				cells[i] = Null()
			}
		}
		rel.Append(Tuple{ID: id, Cells: cells})
		id++
	}
	return rel, nil
}

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
