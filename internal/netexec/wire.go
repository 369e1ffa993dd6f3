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
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Wire format. Every message is one frame:
//
//	frame  := type:1 flags:1 magic:2 xfer:4le a:4le b:4le len:4le crc:4le payload
//	payload of data-bearing frames := (recLen:uvarint recBytes)*
//
// The CRC32 (IEEE) covers the payload; the header is validated by the magic
// and the length bound. The framing is deliberately the same shape as the
// spill run files of internal/spill (length-prefixed records inside
// CRC-checked frames), so the bytes that spill to disk under a memory
// budget and the bytes that cross the wire under the net backend share one
// on-the-wire idiom. xfer identifies the transfer (one per exchange
// operation), a and b are per-message operands (destination partition,
// source partition, sequence number).
const (
	headerSize = 24
	// maxFramePayload bounds a frame so a corrupt length header cannot
	// trigger an absurd allocation (the same defense as spill's maxFrame).
	maxFramePayload = 64 << 20
	// frameTarget is the payload size data streams accumulate before
	// sealing a frame.
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
	// msgPut streams records of (xfer, dst=a, src=b) coordinator→worker.
	// flagBegin resets the bucket (so replays after a retry do not
	// duplicate), flagEnd seals it.
	msgPut
	// msgAck credits one received frame back to the sender (b echoes the
	// frame sequence number); the send window counts unacked frames.
	msgAck
	// msgOK completes an RPC (b may carry a record count).
	msgOK
	// msgErr aborts an RPC; the payload is the error text.
	msgErr
	// msgFetch asks for the records of (xfer, dst=a) in source order; the
	// worker answers with msgData frames then msgOK.
	msgFetch
	// msgData streams response records worker→coordinator.
	msgData
	// msgExec runs a named task worker-local over the stored partitions of
	// (xfer, dst=a); the payload is the task name. Response like msgFetch.
	msgExec
	// msgDrop releases all state of xfer.
	msgDrop
	// msgPing is a liveness probe.
	msgPing
	// msgStats asks for the worker's store footprint (payload of the msgOK
	// response: uvarint transfers, uvarint records) — used by hygiene
	// tests to prove aborted exchanges leave nothing behind.
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
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return frame{}, buf, io.EOF
		}
		return frame{}, buf, fmt.Errorf("netexec: read frame header: %w", err)
	}
	f, n, err := parseHeader(hdr)
	if err != nil {
		return frame{}, buf, err
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return frame{}, buf, fmt.Errorf("netexec: read frame payload: %w", err)
	}
	want := binary.LittleEndian.Uint32(hdr[20:])
	if got := crc32.ChecksumIEEE(buf); got != want {
		return frame{}, buf, fmt.Errorf("netexec: frame checksum mismatch (got %08x want %08x)", got, want)
	}
	f.Payload = buf
	return f, buf, nil
}

// parseHeader validates the fixed header and returns the frame shell plus
// its payload length. Split out of readFrame so the fuzzers can drive it on
// raw bytes.
func parseHeader(hdr [headerSize]byte) (frame, uint32, error) {
	if hdr[2] != magic0 || hdr[3] != magic1 {
		return frame{}, 0, fmt.Errorf("netexec: bad frame magic %02x%02x", hdr[2], hdr[3])
	}
	t := msgType(hdr[0])
	if t == msgInvalid || t > msgStats {
		return frame{}, 0, fmt.Errorf("netexec: unknown message type %d", hdr[0])
	}
	n := binary.LittleEndian.Uint32(hdr[16:])
	if n > maxFramePayload {
		return frame{}, 0, fmt.Errorf("netexec: implausible frame length %d", n)
	}
	f := frame{
		Type:  t,
		Flags: hdr[1],
		Xfer:  binary.LittleEndian.Uint32(hdr[4:]),
		A:     binary.LittleEndian.Uint32(hdr[8:]),
		B:     binary.LittleEndian.Uint32(hdr[12:]),
	}
	return f, n, nil
}

// appendRecord appends one length-prefixed record to a data payload.
func appendRecord(buf, rec []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(rec)))
	return append(buf, rec...)
}

// splitRecords parses a data payload into its records, each capped at its
// own end. With copyOut set (needed whenever the records outlive the frame
// buffer) they alias one copy of the payload instead of the frame buffer;
// corrupt payloads error, never panic.
func splitRecords(payload []byte, copyOut bool) ([][]byte, error) {
	if copyOut {
		payload = bytes.Clone(payload)
	}
	var out [][]byte
	for len(payload) > 0 {
		n, sz := binary.Uvarint(payload)
		if sz <= 0 {
			return nil, fmt.Errorf("netexec: corrupt record length")
		}
		// A multi-byte length whose last byte is zero has a shorter
		// encoding; appendRecord never writes one.
		if sz > 1 && payload[sz-1] == 0 {
			return nil, fmt.Errorf("netexec: non-canonical record length")
		}
		if n > uint64(len(payload)-sz) {
			return nil, fmt.Errorf("netexec: record overruns frame (%d > %d)", n, len(payload)-sz)
		}
		out = append(out, payload[sz:sz+int(n):sz+int(n)])
		payload = payload[sz+int(n):]
	}
	return out, nil
}
