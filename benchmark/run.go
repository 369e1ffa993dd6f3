package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"bigdansing/internal/core"
	"bigdansing/internal/datagen"
	"bigdansing/internal/engine"
)

// config is one run's knobs. seed and scale shape the generated input;
// seconds is how long the timed section measures.
type config struct {
	seed    int64
	scale   float64
	seconds float64
	traced  bool
	minOps  int // timed samples a batch workload takes at least
	setups  int // times set-up is repeated for setup_s (its median is reported)
}

const (
	defaultMinOps = 11
	defaultSetups = 3
	tracedOps     = 3 // staged and traced ops per traced run
)

// timedOp runs f and returns its wall time in seconds and the bytes it
// allocated, in MB.
func timedOp(f func() error) (wall, allocMB float64, err error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err = f()
	wall = time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	return wall, float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6, err
}

// runWorkload sets the workload up, runs it untraced or traced, tears it
// down and checks that nothing was left behind.
func runWorkload(sp *spec, cfg config) (*result, error) {
	res := newResult(sp, cfg.traced)
	if cfg.traced {
		cfg.setups = 1 // setup_s comes from untraced runs only
	}
	before := tempDirs()
	var err error
	if sp.kind == kindStream {
		err = runStream(sp, cfg, res)
	} else {
		err = runBatch(sp, cfg, res)
	}
	if err != nil {
		return nil, err
	}
	for d := range tempDirs() {
		if !before[d] {
			res.fail("left temp dir %s behind", d)
		}
	}
	if n := liveChildren(); n > 0 {
		res.fail("%d worker processes still alive after teardown", n)
	}
	if cfg.traced {
		res.set("engine.peak_rss_mb", peakRSSMB())
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// repeatSetup sets up cfg.setups times, keeps the last instance and
// returns every set-up's duration in seconds.
func repeatSetup[T interface{ close() error }](cfg config, setup func() (T, error)) (T, []float64, error) {
	var inst T
	var times []float64
	for i := 0; i < max(cfg.setups, 1); i++ {
		if i > 0 {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = setup(); err != nil {
			return inst, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return inst, times, nil
}

func runBatch(sp *spec, cfg config, res *result) error {
	b, setupTimes, err := repeatSetup(cfg, func() (*batch, error) { return setupBatch(sp, cfg) })
	if err != nil {
		return err
	}
	defer b.close()

	// checkedOp runs one op on the set-up context and checks its output
	// after the clock has stopped.
	checkedOp := func() (*output, float64, float64) {
		var o *output
		wall, alloc, err := timedOp(func() (err error) { o, err = b.op(b.ctx); return err })
		res.Attempted++
		if err == nil {
			err = b.check(o)
		}
		if err != nil {
			res.fail("%v", err)
		}
		return o, wall, alloc
	}
	warm, _, _ := checkedOp() // discarded: fills caches, grows the heap

	var walls, allocs []float64
	var outs []output // the ops' outside timings; their results are dropped
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	if cfg.traced {
		// The untraced ops of a traced run only anchor the overhead ratio
		// and the layer shares; a quarter of the time is enough.
		deadline = time.Now().Add(time.Duration(cfg.seconds / 4 * float64(time.Second)))
		cfg.minOps = min(cfg.minOps, 5)
	}
	for len(walls) < cfg.minOps || time.Now().Before(deadline) {
		o, wall, alloc := checkedOp()
		walls, allocs = append(walls, wall), append(allocs, alloc)
		if o != nil {
			outs = append(outs, output{read: o.read, compile: o.compile, run: o.run})
		}
	}

	if !cfg.traced {
		rates := make([]float64, len(walls))
		for i, w := range walls {
			rates[i] = float64(b.rows) / w
		}
		res.setSamples("setup_s", setupTimes)
		res.setSamples("job_s", walls)
		res.setSamples("rows_per_s", rates)
		res.setValue("rows_per_s", float64(b.rows*len(walls))/sum(walls))
		res.setSamples("alloc_mb_per_op", allocs)
		res.setValue("alloc_mb_per_op", sum(allocs)/float64(len(allocs)))
		return nil
	}
	return traceBatch(b, res, warm, walls, outs)
}

// traceBatch is the traced part of a batch run: staged ops timed from
// outside, ops with a tracer installed, and the ratios to the baseline.
func traceBatch(b *batch, res *result, warm *output, walls []float64, outs []output) error {
	sp := b.sp
	rec := newRecorder()
	base := median(walls)

	// Outside timing of the op's own public calls.
	var reads, compiles, cleans []float64
	for _, o := range outs {
		reads, compiles, cleans = append(reads, o.read.Seconds()), append(compiles, o.compile.Seconds()), append(cleans, o.run.Seconds())
	}
	if sp.kind == kindClean {
		res.setSamples("model.read_csv_s", reads)
		if r := median(reads); r > 0 {
			res.set("model.read_csv_mb_per_s", float64(len(b.csv))/1e6/r)
		}
		res.setSamples("rules.compile_s", compiles)
	}

	// Staged ops: the benchmark drives the layers itself.
	var plans, detects, round1s, reruns, repairs, applies, layered []float64
	var mrSpilled, mrRead int64
	if b.mr != nil {
		mrSpilled, mrRead = b.mr.Stats().BytesSpilled(), b.mr.Stats().BytesRead()
	}
	for i := 0; i < tracedOps; i++ {
		st, err := b.staged(rec, i)
		res.Attempted++
		if err != nil {
			res.fail("staged op: %v", err)
			continue
		}
		if st.digest != b.ref {
			res.fail("staged op %+v differs from the program's %+v: the split measures a different program", st.digest, b.ref)
		}
		if st.unfrozenRemaining > 0 {
			res.fail("%d remaining violations still have a usable fix", st.unfrozenRemaining)
		}
		plans, detects = append(plans, st.plan.Seconds()), append(detects, st.detect.Seconds())
		round1s, reruns = append(round1s, st.detectRound1.Seconds()), append(reruns, (st.detect-st.detectRound1).Seconds())
		repairs, applies = append(repairs, st.repair.Seconds()), append(applies, st.apply.Seconds())
		layered = append(layered, (st.plan + st.detect + st.repair + st.apply).Seconds())
	}
	if b.mr != nil {
		// The MapReduce engine counts over its lifetime; report per op.
		res.set("mapred.bytes_spilled", float64(b.mr.Stats().BytesSpilled()-mrSpilled)/tracedOps)
		res.set("mapred.bytes_read", float64(b.mr.Stats().BytesRead()-mrRead)/tracedOps)
	}
	res.setSamples("core.plan_s", plans)
	res.setSamples("core.detect_s", detects)
	res.setSamples("core.detect_round1_s", round1s)
	res.setSamples("core.detect_rerun_s", reruns)
	if sp.kind == kindClean {
		res.setSamples("repair.repair_s", repairs)
		res.setSamples("repair.apply_s", applies)
		res.set("cleanse.loop_overhead_s", median(cleans)-median(layered))
	}
	if sp.kind == kindClean && warm != nil {
		q := datagen.Evaluate(b.truth, warm.rel)
		res.set("quality.repair_precision", q.Precision)
		res.set("quality.repair_recall", q.Recall)
		res.set("quality.remaining_violations", float64(warm.report.RemainingViolations))
	}

	// Traced ops: the program's own spans, through the Observer seam.
	var tracedWalls []float64
	var reduced []traced
	for i := 0; i < tracedOps; i++ {
		o, run, wall, err := b.tracedOp()
		res.Attempted++
		if err == nil {
			err = b.check(o)
		}
		if err != nil {
			res.fail("traced op: %v", err)
			continue
		}
		tracedWalls = append(tracedWalls, wall.Seconds())
		reduced = append(reduced, reduceTrace(rec.adopt("traced:"+sp.name, run, tracedOps+i), run.tr))
	}
	setTraced(res, reduced)
	if base > 0 && len(tracedWalls) > 0 {
		res.set("trace.overhead_ratio", median(tracedWalls)/base)
	}

	// Ratios to the baseline detection on the same input, same process.
	if sp.budgetPerRow > 0 || sp.mapred {
		local := engine.New(parallelism)
		var baseline []float64
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			if _, err := core.DetectRule(local, b.rule, b.truth.Dirty); err != nil {
				return err
			}
			baseline = append(baseline, time.Since(t0).Seconds())
		}
		name := "spill.budget_tax_ratio"
		if sp.mapred {
			name = "mapred.disk_gap_ratio"
		}
		res.set(name, base/median(baseline))
	}
	if sp.budgetPerRow > 0 && res.Metrics["spill.bytes_spilled"].Value <= 0 {
		res.fail("the memory budget did not make the engine spill")
	}
	res.spans = rec.spans
	return nil
}

// setTraced stores the observer-sourced per-layer metrics as medians over
// the traced ops.
func setTraced(res *result, ts []traced) {
	for _, name := range observerMetrics {
		xs := make([]float64, len(ts))
		for i, t := range ts {
			xs[i] = t[name]
		}
		res.setSamples(name, xs)
	}
	if p := res.Metrics["core.pairs"].Value; p > 0 {
		res.set("core.violations_per_pair", res.Metrics["core.violations"].Value/p)
	}
}

func runStream(sp *spec, cfg config, res *result) error {
	s, setupTimes, err := repeatSetup(cfg, func() (*stream, error) { return setupStream(sp, cfg) })
	if err != nil {
		return err
	}
	defer s.close()

	// The timed loop: one client, closed loop, a fixed number of batches.
	samples := make([]batchSample, 0, len(s.bodies))
	loopWall, loopAlloc, _ := timedOp(func() error {
		for i := range s.bodies {
			samples = append(samples, s.httpBatch(i))
		}
		return nil
	})
	rejected := 0
	for i, b := range samples {
		res.Attempted++
		if b.failed {
			res.fail("batch %d failed", i)
		}
		if b.rejected {
			rejected++
		}
	}
	rel, err := s.relation()
	if err == nil {
		err = s.checkFinal(rel, samples[len(samples)-1].remaining)
	}
	res.Attempted++
	if err != nil {
		res.fail("final relation: %v", err)
	}
	if err := s.close(); err != nil {
		res.fail("shutdown: %v", err)
	}

	if !cfg.traced {
		res.setSamples("setup_s", setupTimes)
		res.setSamples("job_s", durations(samples, batchSample.total, time.Second))
		res.set("rows_per_s", float64(len(samples)*streamBatchRows)/loopWall)
		res.set("alloc_mb_per_op", loopAlloc/float64(len(samples)))
		return nil
	}

	totals := durations(samples, batchSample.total, time.Millisecond)
	res.setSamples("serve.ingest_http_ms", durations(samples, batchSample.ingestTime, time.Millisecond))
	res.setSamples("serve.flush_http_ms", durations(samples, batchSample.flushTime, time.Millisecond))
	res.setSamples("serve.batch_p50_ms", totals)
	_, p95 := tailPercentile(totals, 95)
	res.set("serve.batch_p95_ms", p95)
	res.set("serve.rejected_429", float64(rejected))
	if n := min(50, len(totals)/2); n > 0 {
		res.set("cleanse.flush_growth_ratio", median(totals[len(totals)-n:])/median(totals[:n]))
	}

	// Direct replay of the same batches: what the session costs without the
	// HTTP/JSON/queue layer, and the program's own spans.
	direct, drel, run, err := s.replay()
	res.Attempted++
	if err != nil {
		res.fail("direct replay: %v", err)
		return nil
	}
	if rel != nil && relationHash(rel) != relationHash(drel) {
		res.fail("the service's final relation differs from the direct replay's")
	}
	res.setSamples("cleanse.ingest_ms", durations(direct, batchSample.ingestTime, time.Millisecond))
	res.setSamples("cleanse.flush_ms", durations(direct, batchSample.flushTime, time.Millisecond))
	res.set("serve.overhead_ms", median(totals)-median(durations(direct, batchSample.total, time.Millisecond)))

	rec := newRecorder()
	spans := rec.adopt("replay:"+sp.name, run, 0)
	// Per batch, so the figures compare with the batch latencies above.
	setTraced(res, []traced{reduceTrace(spans, run.tr).perOp(float64(len(direct)))})

	q := datagen.Evaluate(s.truth, drel)
	res.set("quality.repair_precision", q.Precision)
	res.set("quality.repair_recall", q.Recall)
	res.set("quality.remaining_violations", float64(direct[len(direct)-1].remaining))
	res.spans = rec.spans
	return nil
}

// durations extracts one duration of every batch, in the given unit.
func durations(bs []batchSample, of func(batchSample) time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(bs))
	for i, b := range bs {
		out[i] = float64(of(b)) / float64(unit)
	}
	return out
}

// tempDirs lists the program's temp directories (spill runs, MapReduce
// job directories) currently under the system temp dir.
func tempDirs() map[string]bool {
	out := map[string]bool{}
	matches, _ := filepath.Glob(filepath.Join(os.TempDir(), "bigdansing-*"))
	for _, m := range matches {
		out[m] = true
	}
	return out
}

// liveChildren counts processes whose parent is this process (spawned
// netexec workers that outlived their context). Zombies count: a worker
// nobody waited for is a leak too.
func liveChildren() int {
	entries, err := os.ReadDir("/proc")
	if err != nil {
		return 0
	}
	self, n := os.Getpid(), 0
	for _, e := range entries {
		if _, err := strconv.Atoi(e.Name()); err != nil {
			continue
		}
		data, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if err != nil {
			continue
		}
		// pid (comm) state ppid ...; comm may contain spaces and parentheses.
		rest := string(data[strings.LastIndexByte(string(data), ')')+1:])
		fields := strings.Fields(rest)
		if len(fields) >= 2 {
			if ppid, _ := strconv.Atoi(fields[1]); ppid == self {
				n++
			}
		}
	}
	return n
}

// peakRSSMB is the high-water resident set of this process, plus that of
// its largest reaped child (netexec workers).
func peakRSSMB() float64 {
	var kb float64
	if f, err := os.Open("/proc/self/status"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, _ = strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			}
		}
		f.Close()
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru) == nil {
		kb += float64(ru.Maxrss)
	}
	return kb / 1024
}
