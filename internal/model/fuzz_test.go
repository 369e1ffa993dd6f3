package model

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to every record decoder — the ones that
// read back spill runs, disk-exchange files and net frames. No input may make
// a decoder panic, and none may make it allocate more than a fixed multiple
// of the input: every length and element count is bounded by the bytes that
// are actually there. The checked-in corpus holds the length prefixes that
// used to wrap the bounds checks and the counts that used to size a make.
func FuzzDecode(f *testing.F) {
	f.Add(AppendTuple(nil, NewTuple(7, S("a"), I(-3), F(2.5), Null())))
	f.Add(AppendViolation(nil, NewViolation("r", NewCell(1, 2, S("NY")), NewCell(3, 2, S("LA")))))
	f.Add(AppendViolation(nil, NewViolation("r", NewCell(1, 4, F(2.5)), NewCell(2, 5, Null()))))
	f.Add(AppendViolation(nil, NewViolation("r", NewCell(0, 0, Null()))))
	f.Add(AppendViolation(nil, NewViolation("r", NewConstFix(NewCell(9, 5, F(12.5)), OpLE, F(10)).Cells()...)))
	f.Add(AppendViolationKey(nil, NewViolation("r", NewCell(5, 1, I(1)), NewCell(4, 0, I(2))).MapKey()))
	f.Fuzz(func(t *testing.T, b []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		checkDecode(t, "DecodeValue", b, func(b []byte) (int, error) { _, n, err := DecodeValue(b); return n, err })
		checkDecode(t, "DecodeValueKey", b, func(b []byte) (int, error) { _, n, err := DecodeValueKey(b); return n, err })
		checkDecode(t, "DecodeTuple", b, func(b []byte) (int, error) { _, n, err := DecodeTuple(b); return n, err })
		checkDecode(t, "DecodeViolation", b, func(b []byte) (int, error) { _, n, err := DecodeViolation(b); return n, err })
		checkDecode(t, "DecodeViolationKey", b, func(b []byte) (int, error) { _, n, err := DecodeViolationKey(b); return n, err })
		runtime.ReadMemStats(&after)
		// A decoded element is at most a few hundred bytes of Go structs per
		// input byte it consumed; the constant absorbs the runtime's own
		// allocations.
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+512*len(b)); got > bound {
			t.Fatalf("decoding %d bytes allocated %d bytes (bound %d)", len(b), got, bound)
		}
	})
}

// checkDecode runs one decoder and checks that a success consumed no more
// than the input.
func checkDecode(t *testing.T, name string, b []byte, decode func([]byte) (int, error)) {
	t.Helper()
	n, err := decode(b)
	if err == nil && (n < 0 || n > len(b)) {
		t.Fatalf("%s consumed %d of %d bytes", name, n, len(b))
	}
}

// FuzzReadCSV feeds an arbitrary schema spec and arbitrary CSV bytes to the
// two parsers every raw input goes through. ParseSchema either fails or
// yields a schema that its own String parses back to; ReadCSV either fails
// or yields one tuple per record, each with exactly one cell per attribute
// and no spare capacity (its row of a shared slab), of the attribute's kind
// or null, and IDs numbered on from startID.
// Writing the relation back with WriteCSV and reading it again yields the
// same relation. The checked-in corpus holds ragged rows, bad numerics, an
// empty header, a bare quote, a huge field and a one-column relation with a
// null cell.
func FuzzReadCSV(f *testing.F) {
	f.Add("name,zipcode:int,rate:float", []byte("name,zipcode,rate\na,1,2.5\nb,2\nc,3,4,5,6\n"), true)
	f.Add("zip:int,rate:float", []byte("x,1e400\n 7 ,NaN\n-0,0x10\n"), false)
	f.Add("a", []byte("\n\n"), true)
	f.Fuzz(func(t *testing.T, spec string, data []byte, header bool) {
		schema, err := ParseSchema(spec)
		if err != nil {
			return
		}
		again, err := ParseSchema(schema.String())
		if err != nil {
			t.Fatalf("schema %q does not parse back: %v", schema.String(), err)
		}
		if again.String() != schema.String() {
			t.Fatalf("schema %q parses back as %q", schema.String(), again.String())
		}
		const startID = 5
		rel, err := ReadCSV(bytes.NewReader(data), "fz", schema, header, startID)
		if err != nil {
			return
		}
		if lines := bytes.Count(data, []byte("\n")) + 1; rel.Len() > lines {
			t.Fatalf("%d tuples from %d lines", rel.Len(), lines)
		}
		for i, tp := range rel.Tuples {
			if tp.ID != startID+int64(i) {
				t.Fatalf("tuple %d has id %d", i, tp.ID)
			}
			if len(tp.Cells) != schema.Len() || cap(tp.Cells) != schema.Len() {
				t.Fatalf("tuple %d has %d cells of capacity %d, schema %d", i, len(tp.Cells), cap(tp.Cells), schema.Len())
			}
			for c, v := range tp.Cells {
				if k := schema.Attr(c).Kind; v.Kind != k && v.Kind != KindNull {
					t.Fatalf("tuple %d cell %d is %v, attribute is %v", i, c, v.Kind, k)
				}
			}
		}
		var out bytes.Buffer
		if err := WriteCSV(&out, rel, header); err != nil {
			t.Fatalf("WriteCSV: %v", err)
		}
		back, err := ReadCSV(bytes.NewReader(out.Bytes()), "fz", schema, header, startID)
		if err != nil {
			t.Fatalf("reading WriteCSV output %q: %v", out.Bytes(), err)
		}
		if back.Len() != rel.Len() {
			t.Fatalf("round trip: %d tuples written, %d read back from %q", rel.Len(), back.Len(), out.Bytes())
		}
		for i, tp := range rel.Tuples {
			for c, v := range tp.Cells {
				if got := back.Tuples[i].Cells[c]; !sameCSVCell(v, got, schema.Attr(c).Kind) {
					t.Fatalf("round trip: tuple %d cell %d is %#v, read back %#v", i, c, v, got)
				}
			}
		}
	})
}

// sameCSVCell reports whether a cell read back from WriteCSV output is the
// cell written: same kind and same rendering. CSV has no null, so the one
// loss is a null in a string attribute (a short row's padding), which is
// written as the empty field and read back as the empty string.
func sameCSVCell(wrote, read Value, kind Kind) bool {
	if wrote.Kind == KindNull && kind == KindString {
		return read == S("")
	}
	return wrote.Kind == read.Kind && wrote.String() == read.String()
}
