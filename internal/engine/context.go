// Package engine implements the in-memory parallel dataflow substrate that
// plays the role Apache Spark plays in the paper: partitioned datasets,
// narrow transformations (map, filter), and wide transformations that
// shuffle data between partitions (group-by-key, joins, range partitioning,
// cartesian products).
//
// A Context models a cluster: its parallelism is the number of workers
// ("nodes" in the paper's multi-node experiments), and its Stats expose the
// stage, task and shuffle volumes the paper's optimizations aim to reduce.
//
// # Lazy execution and narrow-stage fusion
//
// Narrow transformations (Map, FlatMap, Filter, MapPartitions) are lazy:
// they record a plan node and return immediately. Execution happens at an
// action — Collect, Count, Err — or at a wide transformation (GroupBy,
// ReduceByKey, CoGroupBy, RangePartitionBy, Cartesian), which is a
// stage boundary. When a plan runs, the whole chain of narrow
// transformations between two stage boundaries fuses into a single
// per-partition pass: elements are pushed through the composed operator
// closures one at a time, so no intermediate partition slices are
// materialized and Stats counts the chain as exactly one stage.
//
// A dataset that has been executed caches its partitions; building further
// transformations on top of it reads the cached data. Building on top of a
// dataset that has NOT been executed re-runs its (pure) operator chain for
// each downstream action, like an uncached Spark RDD — force a dataset
// (e.g. with Err) before fanning out if its chain is expensive.
//
// Errors — including panics inside user functions — stick to the dataset
// and propagate through downstream transformations until an action reports
// them, in the spirit of Spark job failure. A panic inside a fused stage is
// attributed to the operator that raised it (e.g. "Filter#2", the second
// operator of its chain).
package engine

import (
	"cmp"
	"fmt"
	"hash/maphash"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bigdansing/internal/spill"
)

// Stats accumulates execution counters for one Context: cheap atomic
// totals plus a per-stage log. It is the built-in default Observer — the
// engine feeds it spans and counters through the Observer interface, and it
// folds them into the flat totals Snapshot reports.
//
// Contention audit (fused stages report once per partition): the four hot
// totals are sync/atomic counters touched once per stage or task, never per
// record; per-task shuffle counts accumulate lock-free in taskCtx and fold
// into one atomic add at task exit. The only mutex is the per-stage log,
// taken once per stage execution (not per task), where entries are
// aggregated by stage name in place so the log stays bounded by the number
// of distinct stage names rather than growing per execution.
type Stats struct {
	tasks           atomic.Int64
	stages          atomic.Int64
	recordsShuffled atomic.Int64
	recordsRead     atomic.Int64

	// Out-of-core counters, fed by the external (spilling) wide operators.
	bytesSpilled atomic.Int64
	spillRuns    atomic.Int64
	mergePasses  atomic.Int64
	peakReserved atomic.Int64

	// Networked-backend counters, fed by the multi-process exchange.
	netBytesSent atomic.Int64
	netBytesRecv atomic.Int64
	netDials     atomic.Int64
	netRetries   atomic.Int64
	netStraggler atomic.Int64
	netRecovered atomic.Int64

	mu       sync.Mutex
	perStage []StageStat
	stageIdx map[string]int
}

// StageStat describes the executions of one named stage: how many times it
// ran, the partition tasks it executed, the records it moved across
// partitions, and its cumulative wall time. ID is the stage's first-seen
// index — a stable, deterministic identity the per-stage report orders by.
type StageStat struct {
	ID              int
	Name            string
	Runs            int
	Tasks           int64
	RecordsShuffled int64
	Wall            time.Duration
}

// Snapshot is a consistent copy of a Context's statistics, with the
// per-stage log aggregated by stage name (in first-execution order).
type Snapshot struct {
	Stages          int64
	Tasks           int64
	RecordsRead     int64
	RecordsShuffled int64

	// BytesSpilled is the total run-file bytes written by out-of-core
	// operators; SpillRuns counts the run files, MergePasses the k-way
	// merges executed over them, and PeakReservedBytes the high-water mark
	// of memory reserved against the context's budget (never above it).
	BytesSpilled      int64
	SpillRuns         int64
	MergePasses       int64
	PeakReservedBytes int64

	// Networked-backend activity: socket traffic of the multi-process
	// exchange, TCP dials, RPC retries, straggler re-dispatches, and
	// worker-death recoveries. All zero on the in-process backends.
	NetBytesSent  int64
	NetBytesRecv  int64
	NetDials      int64
	NetRetries    int64
	NetStragglers int64
	NetRecoveries int64

	PerStage []StageStat
}

// Snapshot returns the current counters and the per-stage breakdown in one
// struct, so callers no longer stitch the four atomic accessors together.
// The totals are atomic loads and the per-stage log is already aggregated by
// name at record time, so the copy under the mutex is proportional to the
// number of distinct stage names.
func (s *Stats) Snapshot() Snapshot {
	snap := Snapshot{
		Stages:            s.stages.Load(),
		Tasks:             s.tasks.Load(),
		RecordsRead:       s.recordsRead.Load(),
		RecordsShuffled:   s.recordsShuffled.Load(),
		BytesSpilled:      s.bytesSpilled.Load(),
		SpillRuns:         s.spillRuns.Load(),
		MergePasses:       s.mergePasses.Load(),
		PeakReservedBytes: s.peakReserved.Load(),
		NetBytesSent:      s.netBytesSent.Load(),
		NetBytesRecv:      s.netBytesRecv.Load(),
		NetDials:          s.netDials.Load(),
		NetRetries:        s.netRetries.Load(),
		NetStragglers:     s.netStraggler.Load(),
		NetRecoveries:     s.netRecovered.Load(),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	snap.PerStage = append([]StageStat(nil), s.perStage...)
	return snap
}

// String renders the snapshot as a small table for diagnostics (the
// `bigdansing --stats` report). Stages are ordered by their stage ID
// (first-seen order), so the report is deterministic run to run — wall
// times vary, row order does not.
func (sn Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stages: %d, tasks: %d, records read: %d, records shuffled: %d\n",
		sn.Stages, sn.Tasks, sn.RecordsRead, sn.RecordsShuffled)
	if sn.BytesSpilled > 0 || sn.PeakReservedBytes > 0 {
		fmt.Fprintf(&b, "spill: %d bytes in %d runs, %d merge passes, peak reserved: %d bytes\n",
			sn.BytesSpilled, sn.SpillRuns, sn.MergePasses, sn.PeakReservedBytes)
	}
	if sn.NetBytesSent > 0 || sn.NetBytesRecv > 0 || sn.NetDials > 0 {
		fmt.Fprintf(&b, "net: %d bytes sent, %d bytes received, %d dials, %d retries, %d straggler re-dispatches, %d recoveries\n",
			sn.NetBytesSent, sn.NetBytesRecv, sn.NetDials, sn.NetRetries, sn.NetStragglers, sn.NetRecoveries)
	}
	if len(sn.PerStage) == 0 {
		return b.String()
	}
	stages := append([]StageStat(nil), sn.PerStage...)
	slices.SortStableFunc(stages, func(a, b StageStat) int { return cmp.Compare(a.ID, b.ID) })
	fmt.Fprintf(&b, "%4s %-40s %6s %8s %12s %12s\n", "id", "stage", "runs", "tasks", "shuffled", "wall")
	for _, st := range stages {
		fmt.Fprintf(&b, "%4d %-40s %6d %8d %12d %12s\n",
			st.ID, st.Name, st.Runs, st.Tasks, st.RecordsShuffled, st.Wall.Round(time.Microsecond))
	}
	return b.String()
}

// BeginSpan implements Observer: stage spans fold into the per-stage log
// when they end, task spans count one task, every other kind is dropped
// (Stats keeps totals, not trees). The task path returns a shared no-op
// span, so the per-task cost is one atomic add and no allocation.
func (s *Stats) BeginSpan(parent Span, name string, kind SpanKind) Span {
	switch kind {
	case SpanStage:
		return &statsStageSpan{stats: s, name: name, start: time.Now()}
	case SpanTask:
		s.tasks.Add(1)
		return discardSpan{}
	default:
		return discardSpan{}
	}
}

// Count implements Observer: flat counter deltas fold into the atomic
// totals (the peak-reservation metric folds with max).
func (s *Stats) Count(m Metric, v int64) {
	if v == 0 {
		return
	}
	switch m {
	case MetricRecordsRead:
		s.recordsRead.Add(v)
	case MetricRecordsShuffled:
		s.recordsShuffled.Add(v)
	case MetricBytesSpilled:
		s.bytesSpilled.Add(v)
	case MetricSpillRuns:
		s.spillRuns.Add(v)
	case MetricMergePasses:
		s.mergePasses.Add(v)
	case MetricPeakReservedBytes:
		for {
			p := s.peakReserved.Load()
			if v <= p || s.peakReserved.CompareAndSwap(p, v) {
				return
			}
		}
	case MetricNetBytesSent:
		s.netBytesSent.Add(v)
	case MetricNetBytesRecv:
		s.netBytesRecv.Add(v)
	case MetricNetDials:
		s.netDials.Add(v)
	case MetricNetRetries:
		s.netRetries.Add(v)
	case MetricNetStragglers:
		s.netStraggler.Add(v)
	case MetricNetRecoveries:
		s.netRecovered.Add(v)
	}
}

// statsStageSpan accumulates one stage execution for the per-stage log. It
// is owned by the goroutine driving the stage (runStage), so its fields
// need no synchronization; End folds the totals.
type statsStageSpan struct {
	stats    *Stats
	name     string
	start    time.Time
	tasks    int64
	shuffled int64
	ended    bool
}

func (sp *statsStageSpan) Attr(k Attr, v int64) {
	switch k {
	case AttrPartitions:
		sp.tasks = v
	case AttrRecordsShuffled:
		sp.shuffled = v
	}
}

func (sp *statsStageSpan) End() {
	if sp.ended {
		return
	}
	sp.ended = true
	sp.stats.stages.Add(1)
	sp.stats.recordsShuffled.Add(sp.shuffled)
	sp.stats.record(StageStat{
		Name:            sp.name,
		Runs:            1,
		Tasks:           sp.tasks,
		RecordsShuffled: sp.shuffled,
		Wall:            time.Since(sp.start),
	})
}

// record folds one stage execution into the per-name aggregate (first-seen
// order preserved), taken once per stage, not per task or record.
func (s *Stats) record(st StageStat) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stageIdx == nil {
		s.stageIdx = make(map[string]int)
	}
	if i, ok := s.stageIdx[st.Name]; ok {
		agg := &s.perStage[i]
		agg.Runs += st.Runs
		agg.Tasks += st.Tasks
		agg.RecordsShuffled += st.RecordsShuffled
		agg.Wall += st.Wall
		return
	}
	st.ID = len(s.perStage)
	s.stageIdx[st.Name] = len(s.perStage)
	s.perStage = append(s.perStage, st)
}

// Context is the execution environment for datasets: a fixed-size worker
// pool plus statistics, and optionally a memory budget that switches wide
// operators into their out-of-core (spilling) regime. A Context is safe for
// concurrent use.
type Context struct {
	parallelism int
	stats       Stats

	// obs receives every execution event; it is the context's own Stats by
	// default, or a tee of Stats and the configured user Observer.
	obs Observer
	// instrumented records that a user Observer is installed, which turns
	// on the (slightly costlier) fine-grained measurements layers above the
	// engine take, like per-rule UDF timings.
	instrumented bool

	// mem arbitrates the memory budget; nil means unbounded, in which case
	// every wide operator takes its in-memory fast path.
	mem *spill.Manager
	// spillDir is the base directory operators create their run
	// directories under; only set when mem is non-nil.
	spillDir string

	// exchange, when non-nil, is the non-local backend (TCP or disk): the
	// wide operators route their encoded bytes through it instead of
	// moving slices between goroutines. It takes precedence over the spill
	// regime for the scatter-style operators it covers.
	exchange Exchange
}

// Config configures a Context beyond plain parallelism.
type Config struct {
	// Parallelism is the number of workers; non-positive defaults to
	// GOMAXPROCS.
	Parallelism int
	// Observer, when non-nil, additionally receives every execution event
	// (spans for stages, tasks, plans, pipelines, repair phases; flat
	// counters for reads and spills). The context's own Stats always keeps
	// counting, so Snapshot stays truthful with or without an Observer.
	// Install a *trace.Tracer here to capture the full span tree for
	// EXPLAIN / Chrome-trace export.
	Observer Observer
	// MemoryBudgetBytes bounds the working memory of wide operators
	// (shuffle buckets, group state, sort buffers). When a task cannot
	// reserve memory under the budget it spills sorted runs to disk and
	// k-way merges them — the engine's second, disk-backed execution
	// regime. Non-positive means unbounded: all wide operators keep their
	// existing in-memory fast path and never touch disk.
	MemoryBudgetBytes int64
	// SpillDir is the base directory for spill files; empty means the
	// system temp dir. Operators create (and always remove) per-operator
	// subdirectories beneath it.
	SpillDir string
	// BatchSize is ignored: tuples are the executor's one scan format.
	//
	// Deprecated: ignored; kept only so existing callers still compile.
	BatchSize int

	// Backend selects the execution backend. BackendLocal (the zero value)
	// is the in-process worker pool; BackendNet runs partition exchanges
	// across separate OS worker processes over TCP (requires the netexec
	// package to be linked in).
	Backend BackendKind
	// NetWorkers is the number of worker processes the net backend spawns
	// (<=0: 2). Ignored by BackendLocal.
	NetWorkers int
	// NetListenAddr is the host (or host:0) the spawned workers bind their
	// listeners to; empty means 127.0.0.1 (loopback scale-out).
	NetListenAddr string
	// NetWorkerAddrs, when non-empty, joins pre-started workers
	// (`bigdansing worker -addr ...`) at these addresses instead of
	// spawning local processes; NetWorkers is then ignored.
	NetWorkerAddrs []string
	// Exchange, when non-nil, installs this pre-built exchange directly,
	// bypassing the Backend factory. Context.Close closes it, so a caller
	// that closes the context hands the exchange over; a caller that keeps
	// the exchange (to share it across contexts, or to read its counters
	// afterwards) closes the exchange itself and leaves the context
	// unclosed — a context holds nothing else that needs releasing. The
	// disk backend (a *mapred.Engine, whose Close is a no-op by design so
	// it can be shared this way) is installed through this field, and the
	// fault-injection harness uses it to run plans over a coordinator with
	// chaos hooks armed.
	Exchange Exchange
}

// New creates an in-process Context with the given parallelism (number of
// workers) and no memory budget. Non-positive parallelism defaults to
// GOMAXPROCS.
func New(parallelism int) *Context {
	// Only a non-local backend makes NewContext fail.
	ctx, _ := NewContext(Config{Parallelism: parallelism})
	return ctx
}

// NewContext creates a Context from a full configuration, constructing the
// configured backend. For BackendNet the exchange factory registered by the
// netexec package spawns (or joins) the worker processes; the error reports
// spawn and dial failures. Call Close on the returned context to shut the
// workers down.
func NewContext(cfg Config) (*Context, error) {
	p := cfg.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	c := &Context{parallelism: p}
	c.obs = &c.stats
	if cfg.Observer != nil {
		c.obs = Tee(&c.stats, cfg.Observer)
		c.instrumented = true
	}
	if cfg.MemoryBudgetBytes > 0 {
		c.mem = spill.NewManager(cfg.MemoryBudgetBytes)
		c.spillDir = cfg.SpillDir
		if c.spillDir == "" {
			c.spillDir = os.TempDir()
		}
	}
	if cfg.Exchange != nil {
		c.exchange = cfg.Exchange
	} else if cfg.Backend != BackendLocal {
		x, err := newExchange(cfg, c.obs)
		if err != nil {
			return nil, err
		}
		c.exchange = x
	}
	return c, nil
}

// Exchange returns the exchange backing this context, or nil on the
// in-process backend.
func (c *Context) Exchange() Exchange { return c.exchange }

// Close shuts down the context's backend by closing its exchange: on
// BackendNet that closes every worker connection and terminates the spawned
// worker processes. It is idempotent and a no-op for in-process contexts.
func (c *Context) Close() error {
	x := c.exchange
	if x == nil {
		return nil
	}
	c.exchange = nil
	return x.Close()
}

// Parallelism returns the number of workers.
func (c *Context) Parallelism() int { return c.parallelism }

// Stats returns the context's statistics.
func (c *Context) Stats() *Stats { return &c.stats }

// Observer returns the context's event sink — its own Stats by default, or
// the tee of Stats and the configured Observer. Layers above the engine
// (planning, detection, repair, the cleansing loop) report their spans
// through it so one installed Observer sees the whole run.
func (c *Context) Observer() Observer { return c.obs }

// Instrumented reports whether a user Observer is installed. Layers use it
// to gate measurements that are not free (per-rule UDF timings), keeping
// the default path unburdened.
func (c *Context) Instrumented() bool { return c.instrumented }

// MemoryManager exposes the context's budget manager (nil when unbounded),
// for callers that coordinate their own buffers with the engine's budget.
func (c *Context) MemoryManager() *spill.Manager { return c.mem }

// taskCtx is the per-task handle a stage function receives. Fused operators
// store their name in op before invoking user code, so a panic can be
// attributed to the operator that raised it; shuffle tasks accumulate the
// records they moved in shuffled. recordsIn/recordsOut are plain fields the
// operators set once per task (never per record) — runStage pushes them
// onto the task's span when it ends, so tracing them costs nothing on the
// record paths. A task that fails without panicking sets err.
type taskCtx struct {
	part       int
	worker     int
	op         string
	shuffled   int64
	recordsIn  int64
	recordsOut int64
	err        error
}

// runStage executes f for every partition index in [0, n) using at most
// Parallelism workers, reports the stage (and each task) to the observer
// under name, and returns the failure of the lowest failed partition: the
// err its task set, or its panic. A panic inside f is
// recovered and returned as an error naming the partition (and, for fused
// stages, the originating operator), so one bad record fails the stage
// rather than the process. Spans are closed on every exit path, panics
// included, so an observer never sees a leaked span.
func (c *Context) runStage(name string, n int, f func(tk *taskCtx)) error {
	if n == 0 {
		return nil
	}
	sp := c.obs.BeginSpan(nil, name, SpanStage)
	sp.Attr(AttrPartitions, int64(n))
	workers := c.parallelism
	if workers > n {
		workers = n
	}
	var (
		next     atomic.Int64
		shuffled atomic.Int64
		wg       sync.WaitGroup
	)
	errs := make([]error, n)
	run := func(worker, part int) (err error) {
		tsp := c.obs.BeginSpan(sp, name, SpanTask)
		tk := &taskCtx{part: part, worker: worker}
		defer func() {
			if tk.shuffled != 0 {
				shuffled.Add(tk.shuffled)
			}
			tsp.Attr(AttrPart, int64(part))
			tsp.Attr(AttrWorker, int64(worker))
			tsp.Attr(AttrRecordsIn, tk.recordsIn)
			tsp.Attr(AttrRecordsOut, tk.recordsOut)
			tsp.Attr(AttrRecordsShuffled, tk.shuffled)
			tsp.End()
			if r := recover(); r != nil {
				if tk.op != "" {
					err = fmt.Errorf("engine: task for partition %d panicked in %s: %v", part, tk.op, r)
				} else {
					err = fmt.Errorf("engine: task for partition %d panicked: %v", part, r)
				}
			}
		}()
		f(tk)
		return tk.err
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = run(worker, i)
			}
		}(w)
	}
	wg.Wait()
	sp.Attr(AttrRecordsShuffled, shuffled.Load())
	sp.End()
	return cmp.Or(errs...)
}

// shuffleSeed is the process-wide seed for shuffle-key hashing; it only has
// to be consistent within one run, which is all hash partitioning needs.
var shuffleSeed = maphash.MakeSeed()

// hashKey hashes any comparable shuffle key via the runtime's native hash.
// Unlike the interface-based hashAny it replaces, it never boxes the key
// into an interface (no per-record allocation) and never stringifies —
// struct keys like model.ValueKey hash at memory speed.
func hashKey[K comparable](k K) uint64 {
	return maphash.Comparable(shuffleSeed, k)
}

// itoa is a tiny helper used in diagnostics.
func itoa(i int) string { return strconv.Itoa(i) }
