// Package netexec is the networked multi-process execution backend: a
// coordinator that spawns (or joins) worker processes and moves the
// engine's codec-encoded partition bytes between them over TCP. It
// implements engine.Exchange, so the engine's wide transformations —
// grouping, co-grouping, RangePartitionBy, Cartesian — become distributed
// exchanges while narrow fused stages keep running in the process that owns
// the materialized partition.
//
// The design mirrors the paper's Fig. 10 deployment shape (one coordinator,
// N worker nodes) at single-machine scale, with the robustness layer a real
// cluster needs: per-RPC deadlines with exponential backoff, straggler
// detection with re-dispatch (first result wins), and worker-death recovery
// by re-placing the lost worker's partitions from the coordinator's lineage
// of the last materialization.
package netexec

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Wire format. Every message is one frame:
//
//	frame  := type:1 flags:1 magic:2 xfer:4le a:4le b:4le len:4le crc:4le payload
//	payload of data-bearing frames := a chunk of a run
//
// The CRC32 (IEEE) covers the payload; the header is validated by the magic
// and the length bound. A run is the engine's unit of transfer
// (engine.AppendRecord): length-prefixed records back to back, the same
// shape as the payload of internal/spill's run files. The coordinator and
// the workers move runs as opaque bytes, cut into frames of at most
// frameTarget bytes wherever the cut falls; only the engine walks the
// records, and the cartesian task, through engine.CrossRuns. xfer identifies
// the transfer (one per exchange operation), a and b are per-message
// operands (destination partition, source partition, frame count).
const (
	headerSize = 24
	// maxFramePayload bounds a frame so a corrupt length header cannot
	// trigger an absurd allocation (the same defense as spill's maxFrame).
	maxFramePayload = 64 << 20
	// frameTarget is the largest payload a run is cut into.
	frameTarget = 256 << 10

	magic0 = 0xBD
	magic1 = 0x5A
)

// msgType enumerates the protocol messages.
type msgType uint8

const (
	msgInvalid msgType = iota
	// msgHello is the handshake both directions open a connection with.
	msgHello
	// msgPut streams the run of (xfer, dst=a, src=b) coordinator→worker.
	// flagBegin resets the stored run (so replays after a retry do not
	// duplicate), flagEnd seals it.
	msgPut
	// msgAck credits one received frame back to the sender (b echoes the
	// frame sequence number); the send window counts unacked frames.
	msgAck
	// msgOK completes an RPC (b may carry a frame count).
	msgOK
	// msgErr aborts an RPC; the payload is the error text.
	msgErr
	// msgFetch asks for the runs of (xfer, dst=a) in source order; the
	// worker answers with msgData frames then msgOK.
	msgFetch
	// msgData streams a response run worker→coordinator.
	msgData
	// msgExec runs a named task worker-local over the stored runs of
	// (xfer, dst=a); the payload is the task name. Response like msgFetch.
	msgExec
	// msgDrop releases all state of xfer.
	msgDrop
	// msgPing is a liveness probe.
	msgPing
	// msgStats asks for the worker's store footprint (payload of the msgOK
	// response: uvarint transfers, uvarint bytes) — used by hygiene tests
	// to prove aborted exchanges leave nothing behind.
	msgStats
)

const (
	flagBegin = 1 << 0
	flagEnd   = 1 << 1
)

// frame is one decoded protocol frame. Payload aliases the reader's buffer
// and is only valid until the next read.
type frame struct {
	Type    msgType
	Flags   uint8
	Xfer    uint32
	A       uint32
	B       uint32
	Payload []byte
}

// appendFrame serializes a frame into buf (header + payload) and returns
// the extended buffer; the caller writes it with a single Write so
// fault-injection wrappers can count whole frames.
func appendFrame(buf []byte, f frame) []byte {
	var hdr [headerSize]byte
	hdr[0] = byte(f.Type)
	hdr[1] = f.Flags
	hdr[2] = magic0
	hdr[3] = magic1
	binary.LittleEndian.PutUint32(hdr[4:], f.Xfer)
	binary.LittleEndian.PutUint32(hdr[8:], f.A)
	binary.LittleEndian.PutUint32(hdr[12:], f.B)
	binary.LittleEndian.PutUint32(hdr[16:], uint32(len(f.Payload)))
	binary.LittleEndian.PutUint32(hdr[20:], crc32.ChecksumIEEE(f.Payload))
	buf = append(buf, hdr[:]...)
	return append(buf, f.Payload...)
}

// writeFrame writes one frame with a single Write call.
func writeFrame(w io.Writer, f frame, scratch []byte) ([]byte, error) {
	scratch = appendFrame(scratch[:0], f)
	_, err := w.Write(scratch)
	return scratch, err
}

// readFrame reads and validates one frame. buf is reused for the payload
// when large enough. Corrupt input — bad magic, implausible length, CRC
// mismatch, truncation — returns an error, never panics; the returned
// frame's Payload aliases buf.
func readFrame(r io.Reader, buf []byte) (frame, []byte, error) {
	f, n, sum, err := readHeader(r)
	if err == nil {
		buf, err = readPayload(r, buf[:0], n, sum)
		f.Payload = buf
	}
	return f, buf, err
}

// readFrameInto reads one frame of a response stream. A msgData frame's
// payload is appended to run, and the frame's Payload is that window of
// it; a payload longer than room, the bytes the stream may still bring, is
// refused once its header is read, before any of it is read or allocated
// for. Any other frame is read as readFrame reads it, into buf.
func readFrameInto(r io.Reader, buf, run []byte, room int) (frame, []byte, []byte, error) {
	f, n, sum, err := readHeader(r)
	switch {
	case err != nil:
	case f.Type != msgData:
		buf, err = readPayload(r, buf[:0], n, sum)
		f.Payload = buf
	case int(n) > room:
		err = fmt.Errorf("netexec: data frame of %d bytes exceeds the %d still expected", n, room)
	default:
		start := len(run)
		run, err = readPayload(r, run, n, sum)
		f.Payload = run[start:]
	}
	return f, buf, run, err
}

// readHeader reads and validates a frame header, returning the frame shell,
// its payload length and its payload checksum.
func readHeader(r io.Reader) (frame, uint32, uint32, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return frame{}, 0, 0, io.EOF
		}
		return frame{}, 0, 0, fmt.Errorf("netexec: read frame header: %w", err)
	}
	if hdr[2] != magic0 || hdr[3] != magic1 {
		return frame{}, 0, 0, fmt.Errorf("netexec: bad frame magic %02x%02x", hdr[2], hdr[3])
	}
	t := msgType(hdr[0])
	if t == msgInvalid || t > msgStats {
		return frame{}, 0, 0, fmt.Errorf("netexec: unknown message type %d", hdr[0])
	}
	n := binary.LittleEndian.Uint32(hdr[16:])
	if n > maxFramePayload {
		return frame{}, 0, 0, fmt.Errorf("netexec: implausible frame length %d", n)
	}
	f := frame{
		Type:  t,
		Flags: hdr[1],
		Xfer:  binary.LittleEndian.Uint32(hdr[4:]),
		A:     binary.LittleEndian.Uint32(hdr[8:]),
		B:     binary.LittleEndian.Uint32(hdr[12:]),
	}
	return f, n, binary.LittleEndian.Uint32(hdr[20:]), nil
}

// readPayload appends the n-byte payload from r to dst and checks it
// against sum. On error dst comes back as it was.
func readPayload(r io.Reader, dst []byte, n, sum uint32) ([]byte, error) {
	start := len(dst)
	dst = slices.Grow(dst, int(n))[:start+int(n)]
	if _, err := io.ReadFull(r, dst[start:]); err != nil {
		return dst[:start], fmt.Errorf("netexec: read frame payload: %w", err)
	}
	if got := crc32.ChecksumIEEE(dst[start:]); got != sum {
		return dst[:start], fmt.Errorf("netexec: frame checksum mismatch (got %08x want %08x)", got, sum)
	}
	return dst, nil
}
