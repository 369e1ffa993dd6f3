package model_test

import (
	"bytes"
	"runtime"
	"testing"

	"bigdansing/internal/datagen"
	"bigdansing/internal/model"
)

// taxaCSV renders rows TaxA tuples as CSV with a header row.
func taxaCSV(tb testing.TB, rows int) (*model.Relation, []byte) {
	tb.Helper()
	rel := datagen.TaxA(rows, 0.1, 1).Dirty
	var buf bytes.Buffer
	if err := model.WriteCSV(&buf, rel, true); err != nil {
		tb.Fatal(err)
	}
	return rel, buf.Bytes()
}

// TestReadCSVAllocs pins ReadCSV's allocation count: one string per row
// (encoding/csv's copy of the record) plus a logarithmic few for the
// doubling cell slabs, the tuple slice and the reader's buffers — no cell
// slice or field slice per row. The relation read matches the one written,
// across every slab boundary.
func TestReadCSVAllocs(t *testing.T) {
	const rows = 10000
	want, data := taxaCSV(t, rows)
	var rel *model.Relation
	allocs := testing.AllocsPerRun(5, func() {
		var err error
		rel, err = model.ReadCSV(bytes.NewReader(data), "taxa", want.Schema, true, 0)
		if err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(rows + rows/512 + 16); allocs > limit {
		t.Errorf("ReadCSV of %d rows made %.0f allocations, want at most %.0f", rows, allocs, limit)
	}
	if rel.Len() != rows {
		t.Fatalf("read %d rows, want %d", rel.Len(), rows)
	}
	for i, tp := range rel.Tuples {
		if tp.ID != int64(i) {
			t.Fatalf("tuple %d has id %d", i, tp.ID)
		}
		for c, v := range tp.Cells {
			if w := want.Tuples[i].Cells[c]; !v.Equal(w) {
				t.Fatalf("tuple %d cell %d: read %v, wrote %v", i, c, v, w)
			}
		}
	}
}

// BenchmarkReadCSV parses 60 000 TaxA rows (the taxa_fd_clean input size)
// per op and reports the bytes allocated per input byte as B/input-byte.
func BenchmarkReadCSV(b *testing.B) {
	want, data := taxaCSV(b, 60000)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.ReadCSV(bytes.NewReader(data), "taxa", want.Schema, true, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/float64(len(data)), "B/input-byte")
}
