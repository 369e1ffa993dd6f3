package netexec

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"bigdansing/internal/engine"
)

func TestFrameRoundTripStream(t *testing.T) {
	frames := []frame{
		{Type: msgHello},
		{Type: msgPut, Flags: flagBegin | flagEnd, Xfer: 7, A: 3, B: 1, Payload: engine.AppendRecord(engine.AppendRecord(nil, []byte("aa")), []byte{})},
		{Type: msgData, Xfer: 1<<31 + 5, A: 0xFFFFFFFF, B: 42, Payload: bytes.Repeat([]byte{0xAB}, 3000)},
		{Type: msgOK, B: 9},
	}
	var buf bytes.Buffer
	var scratch []byte
	var err error
	for _, f := range frames {
		if scratch, err = writeFrame(&buf, f, scratch); err != nil {
			t.Fatal(err)
		}
	}
	var rbuf []byte
	for i, want := range frames {
		var got frame
		got, rbuf, err = readFrame(&buf, rbuf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type || got.Flags != want.Flags || got.Xfer != want.Xfer ||
			got.A != want.A || got.B != want.B || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d round trip mismatch", i)
		}
	}
	if _, _, err := readFrame(&buf, rbuf); err != io.EOF {
		t.Fatalf("want EOF at stream end, got %v", err)
	}
}

func TestReadFrameRejectsCorruption(t *testing.T) {
	good := appendFrame(nil, frame{Type: msgData, Xfer: 1, Payload: []byte("hello world")})

	flip := func(mutate func(b []byte)) error {
		b := append([]byte(nil), good...)
		mutate(b)
		_, _, err := readFrame(bytes.NewReader(b), nil)
		return err
	}

	if err := flip(func(b []byte) { b[2] = 0x00 }); err == nil {
		t.Error("bad magic accepted")
	}
	if err := flip(func(b []byte) { b[0] = 0xEE }); err == nil {
		t.Error("unknown message type accepted")
	}
	if err := flip(func(b []byte) { b[len(b)-1] ^= 0x01 }); err == nil {
		t.Error("corrupted payload passed the checksum")
	}
	if err := flip(func(b []byte) { binary.LittleEndian.PutUint32(b[16:], maxFramePayload+1) }); err == nil {
		t.Error("implausible length accepted")
	}
	// Truncations at every boundary must error (or EOF at offset 0), never
	// panic or block.
	for cut := 0; cut < len(good); cut++ {
		_, _, err := readFrame(bytes.NewReader(good[:cut]), nil)
		if err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestSplitRecordsRoundTrip walks a run as the exchanges frame it.
func TestSplitRecordsRoundTrip(t *testing.T) {
	recs := [][]byte{[]byte("a"), {}, bytes.Repeat([]byte{7}, 500), []byte("zz")}
	var run []byte
	for _, r := range recs {
		run = engine.AppendRecord(run, r)
	}
	rd := engine.ReadRun(run, len(recs))
	for i := range recs {
		got, ok := rd.Next()
		if !ok || !bytes.Equal(got, recs[i]) {
			t.Fatalf("record %d mismatch: %q", i, got)
		}
	}
	if _, ok := rd.Next(); ok || rd.Err() != nil {
		t.Fatalf("run did not end whole: %v", rd.Err())
	}
	// A record length overrunning the run must error.
	rd = engine.ReadRun(binary.AppendUvarint(nil, 10), -1)
	if _, ok := rd.Next(); ok || rd.Err() == nil {
		t.Error("overrunning record accepted")
	}
}

func TestRingDeterminismAndCoverage(t *testing.T) {
	r1 := newRing(4)
	r2 := newRing(4)
	seen := make(map[int]int)
	for dst := 0; dst < 256; dst++ {
		o := r1.owner(dst)
		if o != r2.owner(dst) {
			t.Fatalf("ring placement not deterministic for dst %d", dst)
		}
		if o < 0 || o >= 4 {
			t.Fatalf("owner %d out of range", o)
		}
		seen[o]++
		cands := r1.candidates(dst)
		if len(cands) != 4 || cands[0] != o {
			t.Fatalf("candidates of %d malformed: %v", dst, cands)
		}
		used := make(map[int]bool)
		for _, c := range cands {
			if used[c] {
				t.Fatalf("candidates of %d repeat a slot: %v", dst, cands)
			}
			used[c] = true
		}
	}
	if len(seen) != 4 {
		t.Errorf("with 256 partitions every slot should own some: %v", seen)
	}
}
