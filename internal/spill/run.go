package spill

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// frameTarget is the payload size a Writer accumulates before sealing a
// frame; one frame is the unit of checksumming and of I/O.
const frameTarget = 256 << 10

// frameHeader is the size of a frame's header: payload length and CRC32.
const frameHeader = 8

// frames is the one bounded pool of frame buffers, each with room for a
// header and frameTarget payload bytes. Writers fill one per run, readers
// load frames into one, and both hand it back when the run is finished or
// closed. A buffer grown past that size by an oversized record is dropped,
// not pooled. The pool keeps at most 16 buffers (4 MiB), so what it retains
// is bounded however many runs an operator opens: a shuffle of 4 source
// partitions into 4 destinations writes 16 runs, and a k-way merge opens
// as many at once.
var frames = make(chan []byte, 16)

// takeFrame returns a pooled frame buffer, if the pool has one.
func takeFrame() ([]byte, bool) {
	select {
	case b := <-frames:
		return b, true
	default:
		return nil, false
	}
}

// releaseFrame returns b to the pool, unless it is not a pool-sized buffer
// or the pool is full.
func releaseFrame(b []byte) {
	if cap(b) != frameHeader+frameTarget {
		return
	}
	select {
	case frames <- b[:0]:
	default:
	}
}

// maxFrame bounds the payload a Reader will accept, so a corrupt length
// header cannot trigger an absurd allocation. Writers seal frames at
// frameTarget but a single record larger than that still forms one frame.
const maxFrame = 1 << 30

// Dir is a lazily created temporary directory holding the run files of one
// spilling operator. Nothing touches the filesystem until the first run is
// created, so operators that stay within budget never pay for a mkdir.
// Cleanup removes the directory and every run in it; operators defer it
// unconditionally so run files are released on error and panic paths too.
type Dir struct {
	base   string
	prefix string

	mu      sync.Mutex
	path    string
	nextRun int
}

// NewDir prepares a lazy spill directory under base (os.TempDir() when
// empty); prefix names the operator for diagnosability of leftovers.
func NewDir(base, prefix string) *Dir {
	if base == "" {
		base = os.TempDir()
	}
	return &Dir{base: base, prefix: prefix}
}

// Path returns the created directory, or "" if nothing spilled yet.
func (d *Dir) Path() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.path
}

// Cleanup removes the directory and all runs in it. Safe to call when
// nothing was ever spilled, and idempotent.
func (d *Dir) Cleanup() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.path == "" {
		return nil
	}
	p := d.path
	d.path = ""
	return os.RemoveAll(p)
}

// NewRun opens a new run file for writing. Safe for concurrent use by
// parallel tasks.
func (d *Dir) NewRun() (*Writer, error) {
	d.mu.Lock()
	if d.path == "" {
		if err := os.MkdirAll(d.base, 0o700); err != nil {
			d.mu.Unlock()
			return nil, fmt.Errorf("spill: create base dir: %w", err)
		}
		p, err := os.MkdirTemp(d.base, "bigdansing-spill-"+d.prefix+"-")
		if err != nil {
			d.mu.Unlock()
			return nil, fmt.Errorf("spill: create dir: %w", err)
		}
		d.path = p
	}
	n := d.nextRun
	d.nextRun++
	path := filepath.Join(d.path, fmt.Sprintf("run-%06d", n))
	d.mu.Unlock()

	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o600)
	if err != nil {
		return nil, fmt.Errorf("spill: create run: %w", err)
	}
	frame, ok := takeFrame()
	if !ok {
		frame = make([]byte, 0, frameHeader+frameTarget)
	}
	return &Writer{f: f, frame: frame[:frameHeader]}, nil
}

// Writer streams records into a run file as crc-checked frames:
//
//	frame  := payloadLen:uint32le crc32:uint32le payload
//	payload:= (recLen:uvarint recBytes)*
//
// Append buffers records into the current frame, behind room for its
// header, and seals it when the next record would not fit in frameTarget
// payload bytes, or when it is full; a record larger than that forms a frame
// of its own. Each sealed frame is one write. Finish seals the tail frame and
// closes the file.
type Writer struct {
	f       *os.File
	frame   []byte // frameHeader bytes for the header, then the payload
	records int64
	bytes   int64
	err     error
}

// Append adds one record to the run. The record bytes are copied; the
// caller may reuse rec immediately.
func (w *Writer) Append(rec []byte) error {
	if w.err != nil {
		return w.err
	}
	size := uvarintLen(uint64(len(rec))) + len(rec)
	if len(w.frame) > frameHeader && len(w.frame)+size > frameHeader+frameTarget {
		if err := w.sealFrame(); err != nil {
			return err
		}
	}
	w.frame = binary.AppendUvarint(w.frame, uint64(len(rec)))
	w.frame = append(w.frame, rec...)
	w.records++
	if len(w.frame) >= frameHeader+frameTarget {
		return w.sealFrame()
	}
	return nil
}

// uvarintLen is the encoded size of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// sealFrame writes the buffered payload as one checksummed frame.
func (w *Writer) sealFrame() error {
	payload := w.frame[frameHeader:]
	if len(payload) == 0 {
		return w.err
	}
	binary.LittleEndian.PutUint32(w.frame[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(w.frame[4:], crc32.ChecksumIEEE(payload))
	if _, err := w.f.Write(w.frame); err != nil {
		w.err = err
		return err
	}
	w.bytes += int64(len(w.frame))
	w.frame = w.frame[:frameHeader]
	return nil
}

// Finish seals the final frame, closes the file, and returns the completed
// Run. The writer is unusable afterwards.
func (w *Writer) Finish() (*Run, error) {
	if err := w.sealFrame(); err != nil {
		w.abort()
		return nil, fmt.Errorf("spill: write run: %w", err)
	}
	releaseFrame(w.frame)
	w.frame = nil
	path := w.f.Name()
	if err := w.f.Close(); err != nil {
		return nil, fmt.Errorf("spill: close run: %w", err)
	}
	return &Run{Path: path, Records: w.records, Bytes: w.bytes}, nil
}

// Abort discards the run: closes and removes the file. Used on error
// paths; the directory Cleanup would catch the file anyway, but aborting
// eagerly keeps disk usage bounded inside one operator.
func (w *Writer) Abort() { w.abort() }

func (w *Writer) abort() {
	releaseFrame(w.frame)
	w.frame = nil
	if w.f != nil {
		name := w.f.Name()
		w.f.Close()
		os.Remove(name)
		w.f = nil
	}
}

// Run is a completed, immutable spill file.
type Run struct {
	Path    string
	Records int64
	Bytes   int64
}

// Open returns a Reader positioned at the first record.
func (r *Run) Open() (*Reader, error) {
	f, err := os.Open(r.Path)
	if err != nil {
		return nil, fmt.Errorf("spill: open run: %w", err)
	}
	return &Reader{f: f, remaining: r.Bytes}, nil
}

// Reader iterates the records of a run, verifying each frame's checksum.
// Frames load into a buffer from the pool when it has one and the frame
// fits, and otherwise into one of the frame's own size; Close hands a pooled
// buffer back.
type Reader struct {
	f     *os.File
	hdr   [frameHeader]byte
	frame []byte
	pos   int
	// remaining is the unread part of the byte count the writer recorded
	// (Run.Bytes); no frame may claim more, so a corrupt length header cannot
	// make readFrame allocate past what was written.
	remaining int64
}

// Next returns the next record, or io.EOF after the last one. The returned
// slice aliases the reader's frame buffer and is valid only until the next
// call to Next.
func (r *Reader) Next() ([]byte, error) {
	for r.pos >= len(r.frame) {
		if err := r.readFrame(); err != nil {
			return nil, err
		}
	}
	n, sz := binary.Uvarint(r.frame[r.pos:])
	if sz <= 0 {
		return nil, fmt.Errorf("spill: %s: corrupt record length", r.f.Name())
	}
	r.pos += sz
	// Compared unsigned: a length past MaxInt must not wrap negative.
	if n > uint64(len(r.frame)-r.pos) {
		return nil, fmt.Errorf("spill: %s: record overruns frame", r.f.Name())
	}
	rec := r.frame[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return rec, nil
}

// readFrame loads and verifies the next frame.
func (r *Reader) readFrame() error {
	if _, err := io.ReadFull(r.f, r.hdr[:]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("spill: %s: read frame header: %w", r.f.Name(), err)
	}
	n := binary.LittleEndian.Uint32(r.hdr[0:])
	want := binary.LittleEndian.Uint32(r.hdr[4:])
	r.remaining -= frameHeader
	if n == 0 || n > maxFrame || int64(n) > r.remaining {
		return fmt.Errorf("spill: %s: implausible frame length %d", r.f.Name(), n)
	}
	r.remaining -= int64(n)
	if cap(r.frame) < int(n) {
		releaseFrame(r.frame)
		b, ok := takeFrame()
		if !ok || cap(b) < int(n) {
			releaseFrame(b)
			b = make([]byte, n)
		}
		r.frame = b
	}
	r.frame = r.frame[:n]
	if _, err := io.ReadFull(r.f, r.frame); err != nil {
		return fmt.Errorf("spill: %s: read frame payload: %w", r.f.Name(), err)
	}
	if got := crc32.ChecksumIEEE(r.frame); got != want {
		return fmt.Errorf("spill: %s: frame checksum mismatch (got %08x want %08x)", r.f.Name(), got, want)
	}
	r.pos = 0
	return nil
}

// Close releases the underlying file and hands the frame buffer back to
// the pool. Records returned by Next are invalid afterwards.
func (r *Reader) Close() error {
	releaseFrame(r.frame)
	r.frame = nil
	return r.f.Close()
}
