package netexec

import (
	"encoding/binary"
	"fmt"
	"io"
	"maps"
	"net"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bigdansing/internal/engine"
)

// Env hooks. WorkerEnv makes any binary that calls MaybeWorker (the
// bigdansing CLI's hidden `worker` subcommand does the equivalent
// explicitly, and the test binaries call it from TestMain) act as a netexec
// worker: it listens on the env value ("auto" for an ephemeral localhost
// port), prints "NETEXEC_READY <addr>" on stdout so the spawner can learn
// the port, and serves until stdin closes — the stdin pipe doubles as a
// coordinator-death watchdog, so orphaned workers reap themselves.
const (
	WorkerEnv = "BIGDANSING_NETEXEC_WORKER"
	// ChaosDelayEnv makes the worker sleep this many milliseconds before
	// answering each fetch/exec — the chaos harness uses it (via
	// Config.SlotEnv) to manufacture a deterministic straggler.
	ChaosDelayEnv = "BIGDANSING_NETEXEC_CHAOS_DELAY_MS"
	// ChaosDieEnv makes the worker exit(3) after receiving this many
	// frames — the chaos harness uses it to kill a worker mid-shuffle.
	ChaosDieEnv = "BIGDANSING_NETEXEC_CHAOS_DIE_AFTER"
)

// MaybeWorker turns the current process into a netexec worker when the
// worker env hook is set, never returning in that case. Call it first thing
// in main() or TestMain: the coordinator re-executes its own binary to
// spawn workers, and this is the hook those child processes land in.
func MaybeWorker() {
	addr := os.Getenv(WorkerEnv)
	if addr == "" {
		return
	}
	if err := WorkerMain(addr, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "netexec worker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// WorkerMain runs the worker server: listen, announce readiness on out,
// and serve connections. Spawned workers (the env hook is set) also watch
// stdin and exit on EOF — the coordinator holds the pipe, so its death
// reaps them; standalone workers (`bigdansing worker`, often daemonized
// with stdin on /dev/null) serve until killed. addr "auto" picks an
// ephemeral localhost port.
func WorkerMain(addr string, out io.Writer) error {
	if addr == "auto" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("netexec worker: listen %s: %w", addr, err)
	}
	defer ln.Close()
	fmt.Fprintf(out, "NETEXEC_READY %s\n", ln.Addr())

	ws := newWorkerServer()
	if os.Getenv(WorkerEnv) != "" {
		go func() {
			// Watchdog: the coordinator holds our stdin pipe open; EOF means
			// it is gone (or told us to stop) and we must not linger.
			io.Copy(io.Discard, os.Stdin)
			ln.Close()
			os.Exit(0)
		}()
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			return nil
		}
		go ws.serve(conn)
	}
}

// workerServer holds one worker's partition store and chaos knobs.
type workerServer struct {
	mu sync.Mutex
	// xfers[xfer][dst][src] is the run of (transfer, destination partition,
	// source partition). Fetch streams dst's runs in ascending src order,
	// preserving the engine's (source, arrival) order.
	xfers map[uint32]map[uint32]map[uint32]storedRun

	frames     atomic.Int64 // received frames, for the die-after chaos knob
	chaosDelay time.Duration
	chaosDie   int64
}

// storedRun is one run of the store, sealed once the PUT carrying flagEnd
// arrived: until then its tail may be missing, and it is not served.
type storedRun struct {
	data   []byte
	sealed bool
}

func newWorkerServer() *workerServer {
	ws := &workerServer{xfers: make(map[uint32]map[uint32]map[uint32]storedRun)}
	if v := os.Getenv(ChaosDelayEnv); v != "" {
		if ms, err := strconv.Atoi(v); err == nil {
			ws.chaosDelay = time.Duration(ms) * time.Millisecond
		}
	}
	if v := os.Getenv(ChaosDieEnv); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			ws.chaosDie = int64(n)
		}
	}
	return ws
}

// serve handles one connection. The protocol on a connection is strictly
// sequential — the coordinator checks a connection out of its pool for the
// duration of an RPC — so the loop reads one frame, acts, and replies.
func (ws *workerServer) serve(conn net.Conn) {
	defer conn.Close()
	var rbuf, wbuf []byte
	for {
		f, b, err := readFrame(conn, rbuf)
		rbuf = b
		if err != nil {
			return // EOF or a corrupt/failed peer; drop the connection
		}
		if n := ws.frames.Add(1); ws.chaosDie > 0 && n >= ws.chaosDie {
			os.Exit(3)
		}
		switch f.Type {
		case msgHello, msgPing:
			wbuf, err = writeFrame(conn, frame{Type: msgOK, Xfer: f.Xfer}, wbuf)
		case msgPut:
			ws.put(f)
			wbuf, err = writeFrame(conn, frame{Type: msgAck, Xfer: f.Xfer, A: f.A, B: f.B}, wbuf)
		case msgFetch:
			wbuf, err = ws.fetch(conn, f, wbuf)
		case msgExec:
			wbuf, err = ws.exec(conn, f, wbuf)
		case msgDrop:
			ws.drop(f.Xfer)
			wbuf, err = writeFrame(conn, frame{Type: msgOK, Xfer: f.Xfer}, wbuf)
		case msgStats:
			wbuf, err = ws.stats(conn, f, wbuf)
		default:
			wbuf, err = writeFrame(conn, frame{Type: msgErr, Xfer: f.Xfer,
				Payload: []byte(fmt.Sprintf("unexpected message type %d", f.Type))}, wbuf)
		}
		if err != nil {
			return
		}
	}
}

// put appends a PUT frame's chunk to run (xfer, dst=A, src=B). flagBegin
// resets the run first, which makes task replays after a retry idempotent
// instead of duplicating; flagEnd seals it.
func (ws *workerServer) put(f frame) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	x := ws.xfers[f.Xfer]
	if x == nil {
		x = make(map[uint32]map[uint32]storedRun)
		ws.xfers[f.Xfer] = x
	}
	d := x[f.A]
	if d == nil {
		d = make(map[uint32]storedRun)
		x[f.A] = d
	}
	r := d[f.B]
	if f.Flags&flagBegin != 0 {
		r = storedRun{}
	}
	r.data = append(r.data, f.Payload...)
	r.sealed = f.Flags&flagEnd != 0
	d[f.B] = r
}

// runs returns the runs of (xfer, dst) in ascending source order, or an
// error naming one that is not sealed. A stored run only grows past its end
// (a replay starts a new one), so the caller may read what it got unlocked.
func (ws *workerServer) runs(xfer, dst uint32) ([][]byte, error) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	d := ws.xfers[xfer][dst]
	srcs := slices.Sorted(maps.Keys(d))
	out := make([][]byte, len(srcs))
	for i, s := range srcs {
		if !d[s].sealed {
			return nil, fmt.Errorf("run (xfer %d, dst %d, src %d) is not sealed: its last PUT never arrived", xfer, dst, s)
		}
		out[i] = d[s].data
	}
	return out, nil
}

// streamRuns sends runs as msgData frames of at most frameTarget bytes,
// then msgOK carrying the frame count.
func streamRuns(conn net.Conn, xfer, dst uint32, runs [][]byte, wbuf []byte) ([]byte, error) {
	var frames uint32
	for _, run := range runs {
		for chunk := range slices.Chunk(run, frameTarget) {
			var err error
			if wbuf, err = writeFrame(conn, frame{Type: msgData, Xfer: xfer, A: dst, B: frames, Payload: chunk}, wbuf); err != nil {
				return wbuf, err
			}
			frames++
		}
	}
	return writeFrame(conn, frame{Type: msgOK, Xfer: xfer, A: dst, B: frames}, wbuf)
}

// fetch streams the stored runs of (xfer, dst) back in source order.
func (ws *workerServer) fetch(conn net.Conn, f frame, wbuf []byte) ([]byte, error) {
	if ws.chaosDelay > 0 {
		time.Sleep(ws.chaosDelay)
	}
	runs, err := ws.runs(f.Xfer, f.A)
	if err != nil {
		return writeFrame(conn, frame{Type: msgErr, Xfer: f.Xfer, Payload: []byte(err.Error())}, wbuf)
	}
	return streamRuns(conn, f.Xfer, f.A, runs, wbuf)
}

// exec runs a named worker-local task over the stored runs of (xfer, dst)
// and streams the resulting run. The only task today is "cartesian": run
// src=0 is the left partition, src=1 the broadcast right side, and the
// cross product is pure concatenation l||r (engine.CrossRuns) — valid
// JoinRow encodings under the engine's sequential codecs, no type knowledge
// needed.
func (ws *workerServer) exec(conn net.Conn, f frame, wbuf []byte) ([]byte, error) {
	if ws.chaosDelay > 0 {
		time.Sleep(ws.chaosDelay)
	}
	task := string(f.Payload)
	if task != "cartesian" {
		return writeFrame(conn, frame{Type: msgErr, Xfer: f.Xfer,
			Payload: []byte("unknown exec task " + task)}, wbuf)
	}
	runs, err := ws.runs(f.Xfer, f.A)
	if err == nil && len(runs) != 2 {
		err = fmt.Errorf("cartesian over %d runs, want 2", len(runs))
	}
	var out []byte
	if err == nil {
		out, err = engine.CrossRuns(runs[0], runs[1])
	}
	if err != nil {
		return writeFrame(conn, frame{Type: msgErr, Xfer: f.Xfer, Payload: []byte(err.Error())}, wbuf)
	}
	return streamRuns(conn, f.Xfer, f.A, [][]byte{out}, wbuf)
}

// drop releases all state of a transfer.
func (ws *workerServer) drop(xfer uint32) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	delete(ws.xfers, xfer)
}

// stats answers with the store footprint: uvarint transfer count, uvarint
// total stored bytes. Hygiene tests use it to prove aborted exchanges left
// nothing behind.
func (ws *workerServer) stats(conn net.Conn, f frame, wbuf []byte) ([]byte, error) {
	ws.mu.Lock()
	nx := len(ws.xfers)
	var size uint64
	for _, x := range ws.xfers {
		for _, d := range x {
			for _, run := range d {
				size += uint64(len(run.data))
			}
		}
	}
	ws.mu.Unlock()
	payload := binary.AppendUvarint(nil, uint64(nx))
	payload = binary.AppendUvarint(payload, size)
	return writeFrame(conn, frame{Type: msgOK, Xfer: f.Xfer, Payload: payload}, wbuf)
}
