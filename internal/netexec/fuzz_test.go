package netexec

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"bigdansing/internal/engine"
)

// FuzzReadFrame feeds arbitrary bytes into the frame reader. The contract
// under fuzz: corrupt headers, truncated frames and bad checksums must
// return errors — never panic, never over-allocate (the length bound), and
// an accepted frame must survive re-encoding byte for byte. The reader that
// appends data payloads to a run must agree with it, and must refuse a
// payload longer than the room left after reading only its header.
func FuzzReadFrame(f *testing.F) {
	f.Add(appendFrame(nil, frame{Type: msgHello}))
	f.Add(appendFrame(nil, frame{Type: msgPut, Flags: flagBegin | flagEnd, Xfer: 9, A: 2, B: 4,
		Payload: engine.AppendRecord(nil, []byte("rec"))}))
	f.Add(appendFrame(nil, frame{Type: msgOK, B: 3, Payload: []byte{1, 2, 3}}))
	f.Add([]byte("garbage that is not a frame at all"))
	f.Add([]byte{0xBD, 0x5A})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		fr, _, err := readFrame(r, nil)
		checkReadInto(t, data, fr, err)
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		consumed := len(data) - r.Len()
		re := appendFrame(nil, fr)
		if !bytes.Equal(re, data[:consumed]) {
			t.Fatalf("accepted frame does not re-encode to its input")
		}
	})
}

// FuzzFrameRoundTrip builds a frame from fuzzed fields and requires an
// exact decode of what was encoded.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint8(1), uint8(0), uint32(0), uint32(0), uint32(0), []byte(nil))
	f.Add(uint8(2), uint8(3), uint32(77), uint32(5), uint32(6), []byte("payload"))
	f.Add(uint8(11), uint8(255), uint32(1<<31), uint32(1<<20), uint32(9), bytes.Repeat([]byte{0}, 300))

	f.Fuzz(func(t *testing.T, ty, flags uint8, xfer, a, b uint32, payload []byte) {
		mt := msgType(ty%uint8(msgStats)) + 1 // keep the type in the valid range
		want := frame{Type: mt, Flags: flags, Xfer: xfer, A: a, B: b, Payload: payload}
		buf := appendFrame(nil, want)
		got, _, err := readFrame(bytes.NewReader(buf), nil)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if got.Type != want.Type || got.Flags != want.Flags || got.Xfer != want.Xfer ||
			got.A != want.A || got.B != want.B || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatal("round trip mismatch")
		}
		if _, _, err := readFrame(bytes.NewReader(buf[:len(buf)-1]), nil); err == nil && len(payload) > 0 {
			t.Fatal("truncated frame accepted")
		}
	})
}

// checkReadInto reads data with readFrameInto, appending to a run that
// already holds bytes, and checks it against readFrame's frame fr and error
// err. A data frame is read twice: with room for one byte less than its
// payload it must be refused after its header alone, leaving the run as it
// was; with room for exactly its payload it must read what readFrame read.
func checkReadInto(t *testing.T, data []byte, fr frame, err error) {
	prefix := []byte("run")
	run := make([]byte, len(prefix), 8)
	copy(run, prefix)
	room := maxFramePayload
	if len(data) >= headerSize && msgType(data[0]) == msgData {
		room = int(binary.LittleEndian.Uint32(data[16:]))
		if room > 0 && room <= maxFramePayload {
			r := bytes.NewReader(data)
			_, _, got, ierr := readFrameInto(r, nil, run, room-1)
			if ierr == nil {
				t.Fatal("a data payload longer than the room left was accepted")
			}
			if ierr != io.EOF && len(data)-r.Len() > headerSize {
				t.Fatalf("refusing a data frame read %d bytes, past its header", len(data)-r.Len())
			}
			if &got[:1][0] != &run[:1][0] || len(got) != len(prefix) {
				t.Fatal("refusing a data frame changed the run")
			}
		}
	}
	gf, _, got, ierr := readFrameInto(bytes.NewReader(data), nil, run, room)
	if (ierr == nil) != (err == nil) {
		t.Fatalf("readFrameInto error %v, readFrame error %v", ierr, err)
	}
	if ierr != nil {
		return
	}
	if gf.Type != fr.Type || gf.Flags != fr.Flags || gf.Xfer != fr.Xfer || gf.A != fr.A || gf.B != fr.B ||
		!bytes.Equal(gf.Payload, fr.Payload) {
		t.Fatal("readFrameInto read another frame than readFrame")
	}
	if fr.Type == msgData && !bytes.Equal(got, append(prefix, fr.Payload...)) {
		t.Fatal("a data payload was not appended to the run")
	}
}

// TestFrameReaderNeverBlocksOnShortInput complements the fuzzers with an
// exhaustive prefix sweep over one real frame (cheap enough to run always).
func TestFrameReaderNeverBlocksOnShortInput(t *testing.T) {
	full := appendFrame(nil, frame{Type: msgData, Xfer: 3, A: 1, B: 2,
		Payload: engine.AppendRecord(nil, bytes.Repeat([]byte{5}, 64))})
	for cut := 0; cut <= len(full); cut++ {
		fr, _, err := readFrame(bytes.NewReader(full[:cut]), nil)
		if cut < len(full) {
			if err == nil {
				t.Fatalf("prefix %d accepted", cut)
			}
			if cut == 0 && err != io.EOF {
				t.Fatalf("empty input should be clean EOF, got %v", err)
			}
		} else if err != nil || !bytes.Equal(fr.Payload, full[headerSize:]) {
			t.Fatalf("full frame rejected: %v", err)
		}
	}
}
