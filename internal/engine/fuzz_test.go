package engine_test

import (
	"bytes"
	"testing"

	"bigdansing/internal/engine"
)

// FuzzReadRun drives engine.ReadRun, the one walker of the runs the
// exchanges move, over bytes as they arrive from the wire: arbitrary runs
// must walk or error (no panics, no overruns); a walk expecting want records
// (negative: any number) must end whole only on exactly that many, and a
// whole walk must re-pack to the identical run, each record capped at its
// own end.
func FuzzReadRun(f *testing.F) {
	f.Add([]byte(nil), 0)
	f.Add(engine.AppendRecord(engine.AppendRecord(nil, []byte("a")), []byte("bc")), 2)
	f.Add(engine.AppendRecord(nil, bytes.Repeat([]byte{9}, 100)), -1)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}, 1)
	// A truncated last record, a record more than expected, and a length
	// written in more bytes than it needs.
	f.Add(append(engine.AppendRecord(nil, []byte("a")), 3, 'b', 'c'), 2)
	f.Add(engine.AppendRecord(engine.AppendRecord(nil, []byte("a")), []byte("b")), 1)
	f.Add([]byte{0x81, 0x00, 'x'}, 1)

	f.Fuzz(func(t *testing.T, run []byte, want int) {
		rd := engine.ReadRun(run, want)
		var re []byte
		n := 0
		for rec, ok := rd.Next(); ok; rec, ok = rd.Next() {
			if cap(rec) != len(rec) {
				t.Fatal("a record is not capped at its own end")
			}
			re = engine.AppendRecord(re, rec)
			n++
		}
		if rd.Err() != nil {
			return
		}
		if want >= 0 && n != want {
			t.Fatalf("walk ended whole after %d records, %d expected", n, want)
		}
		if !bytes.Equal(re, run) {
			t.Fatal("records do not re-pack to the input run")
		}
	})
}
