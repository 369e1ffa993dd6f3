package model

import (
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
	f.Add(AppendViolation(nil, NewViolation("r", NewCell(1, 2, "city", S("NY")), NewCell(3, 2, "city", S("LA")))))
	f.Add(EncodeFixSet(FixSet{
		Violation: NewViolation("r", NewCell(1, 2, "city", S("NY"))),
		Fixes:     []Fix{NewConstFix(NewCell(1, 2, "city", S("NY")), OpEQ, S("LA"))},
	}))
	f.Add(AppendViolationKey(nil, NewViolation("r", NewCell(5, 1, "a", I(1)), NewCell(4, 0, "b", I(2))).MapKey()))
	f.Fuzz(func(t *testing.T, b []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		checkDecode(t, "DecodeValue", b, func(b []byte) (int, error) { _, n, err := DecodeValue(b); return n, err })
		checkDecode(t, "DecodeValueKey", b, func(b []byte) (int, error) { _, n, err := DecodeValueKey(b); return n, err })
		checkDecode(t, "DecodeTuple", b, func(b []byte) (int, error) { _, n, err := DecodeTuple(b); return n, err })
		checkDecode(t, "DecodeViolation", b, func(b []byte) (int, error) { _, n, err := DecodeViolation(b); return n, err })
		checkDecode(t, "DecodeViolationKey", b, func(b []byte) (int, error) { _, n, err := DecodeViolationKey(b); return n, err })
		checkDecode(t, "DecodeFixSet", b, func(b []byte) (int, error) { _, err := DecodeFixSet(b); return 0, err })
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
