package netexec

import (
	"bytes"
	"net"
	"strings"
	"testing"
)

// TestWorkerServesOnlySealedRuns checks that a worker answers a FETCH with
// an error naming the run while a run of the destination lacks its last
// PUT (the one carrying flagEnd), and serves it once sealed.
func TestWorkerServesOnlySealedRuns(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	go newWorkerServer().serve(server)
	var wbuf, rbuf []byte
	roundTrip := func(req frame) frame {
		t.Helper()
		var err error
		if wbuf, err = writeFrame(client, req, wbuf); err != nil {
			t.Fatal(err)
		}
		var f frame
		if f, rbuf, err = readFrame(client, rbuf); err != nil {
			t.Fatal(err)
		}
		return f
	}
	fetch := func() (frame, []byte) {
		t.Helper()
		var err error
		if wbuf, err = writeFrame(client, frame{Type: msgFetch, Xfer: 1, A: 0}, wbuf); err != nil {
			t.Fatal(err)
		}
		var data []byte
		for {
			f, b, err := readFrame(client, rbuf)
			if rbuf = b; err != nil {
				t.Fatal(err)
			}
			if f.Type != msgData {
				return f, data
			}
			data = append(data, f.Payload...)
		}
	}

	roundTrip(frame{Type: msgPut, Flags: flagBegin | flagEnd, Xfer: 1, A: 0, B: 0, Payload: []byte("whole")})
	roundTrip(frame{Type: msgPut, Flags: flagBegin, Xfer: 1, A: 0, B: 1, Payload: []byte("cut ")})
	if f, _ := fetch(); f.Type != msgErr || !strings.Contains(string(f.Payload), "src 1") {
		t.Fatalf("fetch with run 1 unsealed: type %d %q, want an error naming the run", f.Type, f.Payload)
	}
	roundTrip(frame{Type: msgPut, Flags: flagEnd, Xfer: 1, A: 0, B: 1, Payload: []byte("short")})
	if f, data := fetch(); f.Type != msgOK || !bytes.Equal(data, []byte("wholecut short")) {
		t.Fatalf("fetch of sealed runs: type %d, data %q", f.Type, data)
	}
}
