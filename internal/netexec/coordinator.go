package netexec

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bigdansing/internal/engine"
)

// Config parameterizes a Coordinator. The zero value is usable: two spawned
// workers on loopback with production timeouts.
type Config struct {
	// Workers is how many worker processes to spawn (default 2). Ignored
	// when WorkerAddrs joins pre-started workers instead.
	Workers int
	// ListenHost is the interface spawned workers listen on (default
	// 127.0.0.1; each worker picks an ephemeral port).
	ListenHost string
	// WorkerAddrs joins already-running workers (started with
	// `bigdansing worker`) instead of spawning; death recovery then fails
	// over to the surviving workers rather than respawning.
	WorkerAddrs []string

	// RPCTimeout is the per-frame I/O deadline of every RPC (default 10s).
	RPCTimeout time.Duration
	// MaxRetries is how many times a failed RPC is retried on the same
	// slot — with exponential backoff and a fresh dial — before the task
	// fails over to the next candidate slot (default 3).
	MaxRetries int
	// RetryBackoff is the base backoff, doubled per retry (default 25ms).
	RetryBackoff time.Duration
	// SendWindow bounds the unacknowledged PUT frames in flight per
	// connection (default 8): the worker credits each received frame back,
	// and the sender blocks on credits before pushing more.
	SendWindow int

	// StragglerFactor re-dispatches a task to a backup slot when it runs
	// longer than this multiple of the median completed-task span (default
	// 3). First result wins.
	StragglerFactor float64
	// StragglerMinDone is the minimum completed task count before the
	// median is trusted (default 3).
	StragglerMinDone int
	// StragglerPoll is how often running tasks are checked (default 10ms).
	StragglerPoll time.Duration

	// WrapConn, when set, wraps every dialed connection — the fault
	// injection harness uses it to drop connections after k frames.
	WrapConn func(conn net.Conn, slot int) net.Conn
	// SlotEnv, when set, appends extra environment to a spawned slot's
	// worker process — the fault injection harness uses it to arm the
	// worker-side chaos knobs on chosen slots.
	SlotEnv func(slot int) []string
}

func (cfg Config) withDefaults() Config {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.ListenHost == "" {
		cfg.ListenHost = "127.0.0.1"
	}
	if cfg.RPCTimeout <= 0 {
		cfg.RPCTimeout = 10 * time.Second
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 3
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 25 * time.Millisecond
	}
	if cfg.SendWindow <= 0 {
		cfg.SendWindow = 8
	}
	if cfg.StragglerFactor <= 0 {
		cfg.StragglerFactor = 3
	}
	if cfg.StragglerMinDone <= 0 {
		cfg.StragglerMinDone = 3
	}
	if cfg.StragglerPoll <= 0 {
		cfg.StragglerPoll = 10 * time.Millisecond
	}
	return cfg
}

// Counters is a snapshot of the coordinator's robustness counters; the
// chaos suite asserts on them to prove the fault paths actually fired.
type Counters struct {
	Dials      int64 // TCP connections opened
	Retries    int64 // RPC attempts retried after a failure
	Stragglers int64 // straggler re-dispatches (backup attempts launched)
	Recoveries int64 // worker deaths recovered (respawns + failovers)
	BytesSent  int64
	BytesRecv  int64
}

// slot is one position on the placement ring: a worker process (possibly
// respawned several times) that owns the partitions hashing to it.
type slot struct {
	id      int
	spawned bool // we own the process (vs joined via WorkerAddrs)

	mu     sync.Mutex
	addr   string
	conns  []net.Conn
	dead   bool
	gen    int // incremented per (re)spawn; stale pooled conns are discarded
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	waitCh chan struct{} // closed by the watcher once the process is reaped
}

// Coordinator is the control plane of the networked backend: it owns the
// worker processes, places destination partitions on them by consistent
// hashing, and drives the per-destination tasks (PUT lineage, then FETCH or
// EXEC) with deadlines, retries, straggler backups and death recovery. It
// implements engine.Exchange.
type Coordinator struct {
	cfg   Config
	obs   engine.Observer
	ring  *ring
	slots []*slot

	xferSeq atomic.Uint32
	closed  atomic.Bool
	spawnMu sync.Mutex // single-flights respawns

	dials, retries, stragglers, recovered atomic.Int64
	bytesSent, bytesRecv                  atomic.Int64
}

var _ engine.Exchange = (*Coordinator)(nil)

// New builds a Coordinator: spawns (or joins) the workers, verifies each
// answers a ping, and returns the ready data plane. obs receives the
// SpanNet spans and net metrics; nil means discard.
func New(cfg Config, obs engine.Observer) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if obs == nil {
		obs = engine.Discard
	}
	c := &Coordinator{cfg: cfg, obs: obs}
	if len(cfg.WorkerAddrs) > 0 {
		for i, addr := range cfg.WorkerAddrs {
			c.slots = append(c.slots, &slot{id: i, addr: addr})
		}
	} else {
		for i := 0; i < cfg.Workers; i++ {
			s := &slot{id: i, spawned: true}
			if err := c.spawn(s); err != nil {
				c.Close()
				return nil, err
			}
			c.slots = append(c.slots, s)
		}
	}
	c.ring = newRing(len(c.slots))
	for _, s := range c.slots {
		if err := c.withRetry(s, nil, func(r *rpc) error { return r.ping() }); err != nil {
			c.Close()
			return nil, fmt.Errorf("netexec: worker %d (%s) not answering: %w", s.id, s.addr, err)
		}
	}
	return c, nil
}

// Workers reports the worker process count.
func (c *Coordinator) Workers() int { return len(c.slots) }

// Counters snapshots the robustness counters.
func (c *Coordinator) Counters() Counters {
	return Counters{
		Dials:      c.dials.Load(),
		Retries:    c.retries.Load(),
		Stragglers: c.stragglers.Load(),
		Recoveries: c.recovered.Load(),
		BytesSent:  c.bytesSent.Load(),
		BytesRecv:  c.bytesRecv.Load(),
	}
}

// spawn starts (or restarts) the worker process of a slot by re-executing
// this binary with the worker env hook set; the production CLI and the test
// binaries both route the child into WorkerMain via MaybeWorker. The
// child's stdin pipe is the death watchdog, its stdout announces the
// listening address.
func (c *Coordinator) spawn(s *slot) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("netexec: locate own binary: %w", err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), WorkerEnv+"="+net.JoinHostPort(c.cfg.ListenHost, "0"))
	// Race-instrumented binaries sleep 1000ms at exit by default (TSan's
	// atexit_sleep_ms), which turns every worker shutdown into a full
	// second under `go test -race`. Appending the flag overrides it for the
	// workers only; it is inert for non-race builds.
	gorace := "atexit_sleep_ms=0"
	if cur := os.Getenv("GORACE"); cur != "" {
		gorace = cur + " atexit_sleep_ms=0"
	}
	cmd.Env = append(cmd.Env, "GORACE="+gorace)
	if c.cfg.SlotEnv != nil {
		cmd.Env = append(cmd.Env, c.cfg.SlotEnv(s.id)...)
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("netexec: spawn worker %d: %w", s.id, err)
	}

	readyCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if addr, ok := strings.CutPrefix(sc.Text(), "NETEXEC_READY "); ok {
				readyCh <- addr
				break
			}
		}
		// Keep draining so a chatty child can never block on stdout.
		for sc.Scan() {
		}
	}()
	var addr string
	select {
	case addr = <-readyCh:
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		return fmt.Errorf("netexec: worker %d did not report ready", s.id)
	}

	waitCh := make(chan struct{})
	s.mu.Lock()
	s.addr = addr
	s.cmd = cmd
	s.stdin = stdin
	s.waitCh = waitCh
	s.dead = false
	s.gen++
	gen := s.gen
	s.mu.Unlock()

	go func() {
		cmd.Wait() // the watcher owns Wait; Close waits on waitCh instead
		c.markDead(s, gen)
		close(waitCh)
	}()
	return nil
}

// markDead flags a slot whose process of generation gen exited and closes
// its pooled connections. A stale gen (the slot was already respawned) is
// ignored.
func (c *Coordinator) markDead(s *slot, gen int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gen != gen {
		return
	}
	s.dead = true
	for _, conn := range s.conns {
		conn.Close()
	}
	s.conns = nil
}

// ensureAlive respawns a dead spawned slot (single-flighted) so the retry
// that follows re-places the lost partitions from lineage. Joined workers
// cannot be respawned; their tasks fail over to other slots instead.
func (c *Coordinator) ensureAlive(s *slot) error {
	s.mu.Lock()
	dead := s.dead
	s.mu.Unlock()
	if !dead {
		return nil
	}
	if !s.spawned || c.closed.Load() {
		return fmt.Errorf("netexec: worker slot %d is down", s.id)
	}
	c.spawnMu.Lock()
	defer c.spawnMu.Unlock()
	s.mu.Lock()
	dead = s.dead
	s.mu.Unlock()
	if !dead {
		return nil // another task already respawned it
	}
	if err := c.spawn(s); err != nil {
		return err
	}
	c.recovered.Add(1)
	c.obs.Count(engine.MetricNetRecoveries, 1)
	return nil
}

// checkout takes a pooled connection to the slot, dialing a fresh one when
// the pool is empty. Connections are used exclusively for one RPC sequence.
func (c *Coordinator) checkout(s *slot) (net.Conn, int, error) {
	s.mu.Lock()
	if s.dead {
		s.mu.Unlock()
		return nil, 0, fmt.Errorf("netexec: worker slot %d is down", s.id)
	}
	gen := s.gen
	if n := len(s.conns); n > 0 {
		conn := s.conns[n-1]
		s.conns = s.conns[:n-1]
		s.mu.Unlock()
		return conn, gen, nil
	}
	addr := s.addr
	s.mu.Unlock()
	conn, err := net.DialTimeout("tcp", addr, c.cfg.RPCTimeout)
	if err != nil {
		return nil, 0, fmt.Errorf("netexec: dial worker %d (%s): %w", s.id, addr, err)
	}
	c.dials.Add(1)
	c.obs.Count(engine.MetricNetDials, 1)
	if c.cfg.WrapConn != nil {
		conn = c.cfg.WrapConn(conn, s.id)
	}
	return conn, gen, nil
}

// checkin returns a healthy connection to the pool; stale generations (the
// slot respawned while this RPC ran) are discarded.
func (c *Coordinator) checkin(s *slot, conn net.Conn, gen int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead || s.gen != gen || c.closed.Load() {
		conn.Close()
		return
	}
	s.conns = append(s.conns, conn)
}

// opCounters accumulates one exchange operation's traffic and robustness
// events, reported as the SpanNet attributes when the operation ends.
type opCounters struct {
	sent, recvd, retries, stragglers, recovered atomic.Int64
}

// withRetry runs one RPC sequence against a slot with per-attempt
// deadlines, exponential backoff between attempts, a fresh dial after a
// failure, and a respawn when the worker died. ops may be nil.
func (c *Coordinator) withRetry(s *slot, ops *opCounters, body func(r *rpc) error) error {
	backoff := c.cfg.RetryBackoff
	var lastErr error
	for try := 0; try <= c.cfg.MaxRetries; try++ {
		if try > 0 {
			c.retries.Add(1)
			c.obs.Count(engine.MetricNetRetries, 1)
			if ops != nil {
				ops.retries.Add(1)
			}
			time.Sleep(backoff)
			backoff *= 2
		}
		if err := c.ensureAlive(s); err != nil {
			lastErr = err
			continue
		}
		conn, gen, err := c.checkout(s)
		if err != nil {
			lastErr = err
			continue
		}
		r := &rpc{conn: conn, timeout: c.cfg.RPCTimeout, window: c.cfg.SendWindow}
		err = body(r)
		c.bytesSent.Add(r.sent)
		c.bytesRecv.Add(r.recvd)
		c.obs.Count(engine.MetricNetBytesSent, r.sent)
		c.obs.Count(engine.MetricNetBytesRecv, r.recvd)
		if ops != nil {
			ops.sent.Add(r.sent)
			ops.recvd.Add(r.recvd)
		}
		if err == nil {
			c.checkin(s, conn, gen)
			return nil
		}
		conn.Close()
		lastErr = err
	}
	return lastErr
}

// taskTimes tracks completed task spans of one exchange operation; the
// straggler monitor compares running tasks against the median.
type taskTimes struct {
	mu   sync.Mutex
	done []time.Duration
}

func (t *taskTimes) record(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.done = append(t.done, d)
}

// straggling reports whether a task started at start has exceeded
// factor x median of the completed spans (with at least minDone completed).
func (t *taskTimes) straggling(start time.Time, factor float64, minDone int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.done) < minDone {
		return false
	}
	sorted := append([]time.Duration(nil), t.done...)
	for i := 1; i < len(sorted); i++ { // insertion sort; the list is small
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	median := sorted[len(sorted)/2]
	return time.Since(start) > time.Duration(factor*float64(median))
}

// runTask drives one destination task to completion. The primary attempt
// runs on the ring owner; a straggling attempt gets one backup dispatched
// to the next candidate slot (first result wins); a failed attempt fails
// over down the candidate list, each failover counting as a recovery
// (the task's data is re-placed from lineage onto another worker).
func (c *Coordinator) runTask(dst int, tt *taskTimes, ops *opCounters, attempts *sync.WaitGroup, attempt func(slotID int) ([]byte, error)) ([]byte, error) {
	cands := c.ring.candidates(dst)
	type result struct {
		run []byte
		err error
	}
	ch := make(chan result, len(cands))
	next := 0
	inflight := 0
	launch := func() {
		sid := cands[next]
		next++
		inflight++
		attempts.Add(1)
		go func() {
			defer attempts.Done()
			run, err := attempt(sid)
			ch <- result{run, err}
		}()
	}
	start := time.Now()
	launch()
	redispatched := false
	var lastErr error
	for inflight > 0 {
		var tick <-chan time.Time
		if !redispatched && next < len(cands) {
			tick = time.After(c.cfg.StragglerPoll)
		}
		select {
		case r := <-ch:
			inflight--
			if r.err == nil {
				tt.record(time.Since(start))
				return r.run, nil
			}
			lastErr = r.err
			if inflight == 0 && next < len(cands) {
				c.recovered.Add(1)
				c.obs.Count(engine.MetricNetRecoveries, 1)
				if ops != nil {
					ops.recovered.Add(1)
				}
				launch()
			}
		case <-tick:
			if tt.straggling(start, c.cfg.StragglerFactor, c.cfg.StragglerMinDone) {
				redispatched = true
				c.stragglers.Add(1)
				c.obs.Count(engine.MetricNetStragglers, 1)
				if ops != nil {
					ops.stragglers.Add(1)
				}
				launch()
			}
		}
	}
	return nil, lastErr
}

// Shuffle implements engine.Exchange: per destination partition, PUT the
// destination's runs (the caller's runs are the lineage any task can be
// restarted from on any worker) to the owning worker, then FETCH them back
// gathered in source order, into one buffer sized by the bytes routed
// there.
func (c *Coordinator) Shuffle(op string, runs [][][]byte, n int) ([][]byte, error) {
	size := make([]int, n)
	for src, bySrc := range runs {
		if len(bySrc) != n {
			return nil, fmt.Errorf("netexec: %s: source %d has runs for %d destinations, not %d", op, src, len(bySrc), n)
		}
		for dst, run := range bySrc {
			size[dst] += len(run)
		}
	}
	return c.exchange(op, n, func(dst int) bool { return size[dst] > 0 }, func(r *rpc, xfer, dst uint32) ([]byte, error) {
		for src, bySrc := range runs {
			if err := r.putRun(xfer, dst, uint32(src), bySrc[dst]); err != nil {
				return nil, err
			}
		}
		// Every attempt reads into a buffer of its own: a straggler's
		// backup may be filling another beside it.
		run, err := r.request("fetch", frame{Type: msgFetch, Xfer: xfer, A: dst}, make([]byte, 0, size[dst]), size[dst])
		if err == nil && len(run) != size[dst] {
			err = fmt.Errorf("netexec: %s: fetch of destination %d returned %d bytes, %d were routed", op, dst, len(run), size[dst])
		}
		return run, err
	})
}

// Cartesian implements engine.Exchange: each left run and the broadcast
// right run are PUT to the partition's owner (sources 0 and 1), then EXEC
// "cartesian" expands the cross product worker-local over the opaque
// encodings and streams the product run back.
func (c *Coordinator) Cartesian(op string, left [][]byte, right []byte) ([][]byte, error) {
	moves := func(p int) bool { return len(left[p]) > 0 && len(right) > 0 } // else the product is empty
	return c.exchange(op, len(left), moves, func(r *rpc, xfer, p uint32) ([]byte, error) {
		if err := r.putRun(xfer, p, 0, left[p]); err != nil {
			return nil, err
		}
		if err := r.putRun(xfer, p, 1, right); err != nil {
			return nil, err
		}
		// Nothing was routed to bound the product's size: only each
		// frame's own bound holds.
		return r.request("exec cartesian", frame{Type: msgExec, Xfer: xfer, A: p, Payload: []byte("cartesian")}, nil, math.MaxInt)
	})
}

// exchange runs one exchange operation: for every partition p < n that
// moves anything, a task that runs body on p's owner, under the retries,
// straggler backups and failover of runTask, all tasks concurrently. A
// partition that moves nothing stays empty. The transfer's worker state is
// dropped once every attempt has landed, on error paths too.
func (c *Coordinator) exchange(op string, n int, moves func(p int) bool, body func(r *rpc, xfer, p uint32) ([]byte, error)) ([][]byte, error) {
	if c.closed.Load() {
		return nil, fmt.Errorf("netexec: coordinator is closed")
	}
	xfer := c.xferSeq.Add(1)
	span := c.obs.BeginSpan(nil, "net:"+op, engine.SpanNet)
	ops := &opCounters{}
	var attempts sync.WaitGroup
	defer func() {
		attempts.Wait() // losing straggler attempts must land before drop
		c.dropXfer(xfer)
		span.Attr(engine.AttrNetBytesSent, ops.sent.Load())
		span.Attr(engine.AttrNetBytesRecv, ops.recvd.Load())
		span.Attr(engine.AttrNetRetries, ops.retries.Load())
		span.Attr(engine.AttrNetRedispatches, ops.stragglers.Load())
		span.Attr(engine.AttrNetRecoveries, ops.recovered.Load())
		span.End()
	}()

	out := make([][]byte, n)
	errs := make([]error, n)
	tt := &taskTimes{}
	var wg sync.WaitGroup
	for p := range n {
		if !moves(p) {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[p], errs[p] = c.runTask(p, tt, ops, &attempts, func(slotID int) ([]byte, error) {
				var run []byte
				err := c.withRetry(c.slots[slotID], ops, func(r *rpc) (err error) {
					run, err = body(r, xfer, uint32(p))
					return err
				})
				return run, err
			})
		}()
	}
	wg.Wait()
	if err := cmp.Or(errs...); err != nil {
		return nil, err
	}
	return out, nil
}

// dropXfer releases the transfer's state on every live worker, best effort.
// It runs on success and on every error path, so aborted exchanges leave
// the worker stores empty.
func (c *Coordinator) dropXfer(xfer uint32) {
	for _, s := range c.slots {
		s.mu.Lock()
		dead := s.dead
		s.mu.Unlock()
		if dead {
			continue
		}
		conn, gen, err := c.checkout(s)
		if err != nil {
			continue
		}
		r := &rpc{conn: conn, timeout: c.cfg.RPCTimeout, window: c.cfg.SendWindow}
		if err := r.drop(xfer); err != nil {
			conn.Close()
			continue
		}
		c.bytesSent.Add(r.sent)
		c.bytesRecv.Add(r.recvd)
		c.checkin(s, conn, gen)
	}
}

// Close shuts the backend down: pooled connections close, spawned workers
// get their stdin watchdog pipe closed (and are killed if they outstay a
// grace period). Idempotent.
func (c *Coordinator) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	for _, s := range c.slots {
		s.mu.Lock()
		for _, conn := range s.conns {
			conn.Close()
		}
		s.conns = nil
		stdin, cmd, waitCh := s.stdin, s.cmd, s.waitCh
		s.mu.Unlock()
		if stdin != nil {
			stdin.Close()
		}
		if cmd != nil && waitCh != nil {
			select {
			case <-waitCh:
			case <-time.After(5 * time.Second):
				cmd.Process.Kill()
				<-waitCh
			}
		}
	}
	return nil
}
