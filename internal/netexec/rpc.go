package netexec

import (
	"encoding/binary"
	"fmt"
	"net"
	"slices"
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

// putRun streams run into the worker's store as (xfer, dst, src), cut
// into PUT frames of at most frameTarget bytes. The first frame carries
// flagBegin (resetting what the worker stored there, which makes replays
// idempotent), the last flagEnd. An empty run sends nothing.
func (r *rpc) putRun(xfer, dst, src uint32, run []byte) error {
	flags, sent := uint8(flagBegin), 0
	for chunk := range slices.Chunk(run, frameTarget) {
		if sent += len(chunk); sent == len(run) {
			flags |= flagEnd
		}
		if err := r.sendWindowed(frame{Type: msgPut, Flags: flags, Xfer: xfer, A: dst, B: src, Payload: chunk}); err != nil {
			return err
		}
		flags = 0
	}
	return nil
}

// request drains the PUT credits, sends req (a FETCH or an EXEC, named by
// what) and appends the msgData stream it is answered with, up to msgOK,
// to run. A frame that would bring more than room bytes in all is refused,
// and the frame count msgOK reports must match what arrived.
func (r *rpc) request(what string, req frame, run []byte, room int) ([]byte, error) {
	if err := r.drainAcks(); err != nil {
		return nil, err
	}
	if err := r.write(req); err != nil {
		return nil, err
	}
	var frames uint32
	for {
		if err := r.conn.SetReadDeadline(time.Now().Add(r.timeout)); err != nil {
			return nil, err
		}
		f, b, got, err := readFrameInto(r.conn, r.rbuf, run, room)
		r.rbuf = b
		if err != nil {
			return nil, fmt.Errorf("netexec: %s: %w", what, err)
		}
		r.recvd += int64(headerSize + len(f.Payload))
		switch f.Type {
		case msgData:
			run = got
			room -= len(f.Payload)
			frames++
		case msgOK:
			if f.B != frames {
				return nil, fmt.Errorf("netexec: %s: %d frames arrived, worker sent %d", what, frames, f.B)
			}
			return run, nil
		case msgErr:
			return nil, fmt.Errorf("netexec: %s: worker error: %s", what, f.Payload)
		default:
			return nil, fmt.Errorf("netexec: %s: unexpected message type %d", what, f.Type)
		}
	}
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
func (r *rpc) stats() (xfers, size uint64, err error) {
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
	size, _ = binary.Uvarint(payload[n:])
	return xfers, size, nil
}
