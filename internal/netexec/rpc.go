package netexec

import (
	"encoding/binary"
	"fmt"
	"net"
	"time"
)

// rpc drives one RPC sequence over an exclusively-held connection. Every
// frame read or write carries a fresh deadline of the configured timeout,
// so a hung worker turns into an error the retry machinery handles rather
// than a stuck coordinator. sent/recvd account the socket traffic.
type rpc struct {
	conn    net.Conn
	timeout time.Duration
	window  int

	scratch []byte // write assembly buffer, reused across frames
	rbuf    []byte // read payload buffer, reused across frames
	unacked int    // PUT frames in flight, bounded by window

	sent, recvd int64
}

func (r *rpc) write(f frame) error {
	if err := r.conn.SetWriteDeadline(time.Now().Add(r.timeout)); err != nil {
		return err
	}
	var err error
	r.scratch, err = writeFrame(r.conn, f, r.scratch)
	if err != nil {
		return fmt.Errorf("netexec: write %d frame: %w", f.Type, err)
	}
	r.sent += int64(headerSize + len(f.Payload))
	return nil
}

func (r *rpc) read() (frame, error) {
	if err := r.conn.SetReadDeadline(time.Now().Add(r.timeout)); err != nil {
		return frame{}, err
	}
	f, b, err := readFrame(r.conn, r.rbuf)
	r.rbuf = b
	if err != nil {
		return frame{}, err
	}
	r.recvd += int64(headerSize + len(f.Payload))
	return f, nil
}

// readAck consumes one ACK credit.
func (r *rpc) readAck() error {
	f, err := r.read()
	if err != nil {
		return err
	}
	if f.Type != msgAck {
		return fmt.Errorf("netexec: expected ack, got message type %d", f.Type)
	}
	r.unacked--
	return nil
}

// sendWindowed sends one PUT frame under the credit window: when the
// unacked count reaches the window, it blocks reading credits first.
func (r *rpc) sendWindowed(f frame) error {
	for r.unacked >= r.window {
		if err := r.readAck(); err != nil {
			return err
		}
	}
	if err := r.write(f); err != nil {
		return err
	}
	r.unacked++
	return nil
}

// drainAcks consumes all outstanding PUT credits; callers must drain before
// issuing a request expecting a different response type.
func (r *rpc) drainAcks() error {
	for r.unacked > 0 {
		if err := r.readAck(); err != nil {
			return err
		}
	}
	return nil
}

// putBucket streams recs into worker bucket (xfer, dst, src) as PUT frames
// of ~frameTarget payload. The first frame carries flagBegin (resetting the
// bucket, which makes replays idempotent), the last flagEnd.
func (r *rpc) putBucket(xfer, dst, src uint32, recs [][]byte) error {
	if len(recs) == 0 {
		return nil
	}
	// A bucket smaller than a frame gets a payload of its own size.
	size := 0
	for _, rec := range recs {
		if size += binary.MaxVarintLen64 + len(rec); size >= frameTarget+4096 {
			break
		}
	}
	payload := make([]byte, 0, min(size, frameTarget+4096))
	flags := uint8(flagBegin)
	var seq uint32
	flush := func(last bool) error {
		f := flags
		if last {
			f |= flagEnd
		}
		err := r.sendWindowed(frame{Type: msgPut, Flags: f, Xfer: xfer, A: dst, B: src, Payload: payload})
		flags = 0
		seq++
		payload = payload[:0]
		return err
	}
	for i, rec := range recs {
		payload = appendRecord(payload, rec)
		if len(payload) >= frameTarget && i != len(recs)-1 {
			if err := flush(false); err != nil {
				return err
			}
		}
	}
	return flush(true)
}

// readStream collects a msgData stream terminated by msgOK and verifies the
// count the worker reports against what arrived.
func (r *rpc) readStream(what string) ([][]byte, error) {
	var out [][]byte
	for {
		f, err := r.read()
		if err != nil {
			return nil, err
		}
		switch f.Type {
		case msgData:
			recs, err := splitRecords(f.Payload, true)
			if err != nil {
				return nil, err
			}
			out = append(out, recs...)
		case msgOK:
			if uint32(len(out)) != f.B {
				return nil, fmt.Errorf("netexec: %s returned %d records, worker sent %d", what, len(out), f.B)
			}
			return out, nil
		case msgErr:
			return nil, fmt.Errorf("netexec: %s: worker error: %s", what, f.Payload)
		default:
			return nil, fmt.Errorf("netexec: %s: unexpected message type %d", what, f.Type)
		}
	}
}

// fetch retrieves the gathered records of (xfer, dst) in source order.
func (r *rpc) fetch(xfer, dst uint32) ([][]byte, error) {
	if err := r.write(frame{Type: msgFetch, Xfer: xfer, A: dst}); err != nil {
		return nil, err
	}
	return r.readStream("fetch")
}

// exec runs the named worker-local task over (xfer, dst) and retrieves the
// result stream.
func (r *rpc) exec(xfer, dst uint32, task string) ([][]byte, error) {
	if err := r.write(frame{Type: msgExec, Xfer: xfer, A: dst, Payload: []byte(task)}); err != nil {
		return nil, err
	}
	return r.readStream("exec " + task)
}

// expectOK reads one frame and requires msgOK, returning its payload copy.
func (r *rpc) expectOK(what string) ([]byte, error) {
	f, err := r.read()
	if err != nil {
		return nil, err
	}
	switch f.Type {
	case msgOK:
		return append([]byte(nil), f.Payload...), nil
	case msgErr:
		return nil, fmt.Errorf("netexec: %s: worker error: %s", what, f.Payload)
	default:
		return nil, fmt.Errorf("netexec: %s: unexpected message type %d", what, f.Type)
	}
}

// ping round-trips a liveness probe.
func (r *rpc) ping() error {
	if err := r.write(frame{Type: msgPing}); err != nil {
		return err
	}
	_, err := r.expectOK("ping")
	return err
}

// drop releases all worker state of a transfer.
func (r *rpc) drop(xfer uint32) error {
	if err := r.write(frame{Type: msgDrop, Xfer: xfer}); err != nil {
		return err
	}
	_, err := r.expectOK("drop")
	return err
}

// stats fetches the worker's store footprint.
func (r *rpc) stats() (xfers, records uint64, err error) {
	if err := r.write(frame{Type: msgStats}); err != nil {
		return 0, 0, err
	}
	payload, err := r.expectOK("stats")
	if err != nil {
		return 0, 0, err
	}
	var n int
	xfers, n = binary.Uvarint(payload)
	if n <= 0 {
		return 0, 0, fmt.Errorf("netexec: stats: corrupt payload")
	}
	records, _ = binary.Uvarint(payload[n:])
	return xfers, records, nil
}
