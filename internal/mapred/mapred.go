// Package mapred is the disk exchange: the substrate of the
// BigDansing-Hadoop backend of the paper's multi-node experiments (Figures
// 10a and 10c, Appendix G.2), expressed as an engine.Exchange. A Context
// built with engine.Config{Exchange: eng} runs the one executor unchanged;
// the only difference from the in-memory backend is that every partition
// exchange materialises on disk — each source→destination bucket is written
// as a CRC-framed internal/spill run file and read back by the destination
// task — so the Hadoop-vs-Spark gap of the paper reproduces from file I/O
// alone.
package mapred

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"bigdansing/internal/engine"
	"bigdansing/internal/spill"
)

// Stats counts the disk traffic the engine's exchanges generated.
type Stats struct {
	bytesSpilled atomic.Int64
	bytesRead    atomic.Int64
}

// BytesSpilled returns bytes written to run files.
func (s *Stats) BytesSpilled() int64 { return s.bytesSpilled.Load() }

// BytesRead returns bytes read back from run files.
func (s *Stats) BytesRead() int64 { return s.bytesRead.Load() }

// Engine is a disk-materialising engine.Exchange with a fixed number of
// parallel I/O task slots. It is safe for concurrent use: every exchange
// writes into a run directory of its own.
type Engine struct {
	base    string
	workers int
	stats   Stats
}

var _ engine.Exchange = (*Engine)(nil)

// New creates an engine. dir is the directory run files go under ("" means
// the OS temp dir); workers is the task-slot count (<=0 means 4, Hadoop's
// historical default of 2 map + 2 reduce slots). Nothing touches the
// filesystem until the first exchange.
func New(dir string, workers int) (*Engine, error) {
	if workers <= 0 {
		workers = 4
	}
	if dir != "" {
		if fi, err := os.Stat(dir); err == nil && !fi.IsDir() {
			return nil, fmt.Errorf("mapred: %s is not a directory", dir)
		}
	}
	return &Engine{base: dir, workers: workers}, nil
}

// Stats returns the engine's disk statistics.
func (e *Engine) Stats() *Stats { return &e.stats }

// Workers reports the task-slot count.
func (e *Engine) Workers() int { return e.workers }

// Close implements engine.Exchange. Every exchange removes its own run
// directory before it returns, on error paths too, so there is nothing left
// to release; the directory passed to New is never removed. Close is a no-op
// on purpose: one engine may back several contexts, and stays usable
// whichever of them is closed.
func (e *Engine) Close() error { return nil }

// Shuffle writes every source→destination bucket as one run file (the map
// side), then has each destination read its buckets back in source order
// (the reduce side), which is the Exchange ordering contract.
func (e *Engine) Shuffle(op string, parts [][]engine.EncodedRec, n int) ([][][]byte, error) {
	dir := spill.NewDir(e.base, "mr")
	defer dir.Cleanup()
	runs, err := e.scatter(dir, parts, n)
	if err != nil {
		return nil, fmt.Errorf("mapred: %s: %w", op, err)
	}
	out, err := e.gather(runs, n)
	if err != nil {
		return nil, fmt.Errorf("mapred: %s: %w", op, err)
	}
	return out, nil
}

// scatter is the map side: runs[src][dst] holds source partition src's
// records bound for destination dst, nil where there are none. A count pass
// sizes every bucket, so a source's buckets share one exact allocation.
func (e *Engine) scatter(dir *spill.Dir, parts [][]engine.EncodedRec, n int) ([][]*spill.Run, error) {
	runs := make([][]*spill.Run, len(parts))
	err := e.parallel(len(parts), func(src int) error {
		buckets, err := bucket(parts[src], n)
		if err != nil {
			return err
		}
		runs[src] = make([]*spill.Run, n)
		for dst, recs := range buckets {
			run, err := e.writeRun(dir, recs)
			if err != nil {
				return err
			}
			runs[src][dst] = run
		}
		return nil
	})
	return runs, err
}

// bucket splits one source's records by destination, in arrival order. The
// buckets are cut, each capped, from one slice sized by a count pass.
func bucket(recs []engine.EncodedRec, n int) ([][][]byte, error) {
	off := make([]int, n+1)
	for _, rec := range recs {
		if int(rec.Dst) >= n {
			return nil, fmt.Errorf("record bound for partition %d of %d", rec.Dst, n)
		}
		off[rec.Dst+1]++
	}
	for dst := 1; dst <= n; dst++ {
		off[dst] += off[dst-1]
	}
	all := make([][]byte, len(recs))
	buckets := make([][][]byte, n)
	for dst := range buckets {
		buckets[dst] = all[off[dst]:off[dst]:off[dst+1]]
	}
	for _, rec := range recs {
		buckets[rec.Dst] = append(buckets[rec.Dst], rec.Data)
	}
	return buckets, nil
}

// gather is the reduce side: destination dst concatenates its runs in
// source-partition order.
func (e *Engine) gather(runs [][]*spill.Run, n int) ([][][]byte, error) {
	out := make([][][]byte, n)
	err := e.parallel(n, func(dst int) error {
		var records int64
		for _, bySrc := range runs {
			if r := bySrc[dst]; r != nil {
				records += r.Records
			}
		}
		recs := make([][]byte, 0, records)
		for _, bySrc := range runs {
			var err error
			if recs, err = e.readRun(bySrc[dst], recs); err != nil {
				return err
			}
		}
		out[dst] = recs
		return nil
	})
	return out, err
}

// Cartesian writes the right side once (the broadcast side, Hadoop's
// distributed cache) and every left partition as run files; each left
// partition's task then reads both back and concatenates the encodings.
func (e *Engine) Cartesian(op string, left [][][]byte, right [][]byte) ([][][]byte, error) {
	dir := spill.NewDir(e.base, "mr")
	defer dir.Cleanup()
	rightRun, err := e.writeRun(dir, right)
	if err != nil {
		return nil, fmt.Errorf("mapred: %s: %w", op, err)
	}
	out := make([][][]byte, len(left))
	err = e.parallel(len(left), func(p int) error {
		leftRun, err := e.writeRun(dir, left[p])
		if err != nil {
			return err
		}
		ls, err := e.readRun(leftRun, nil)
		if err != nil {
			return err
		}
		rs, err := e.readRun(rightRun, nil)
		if err != nil {
			return err
		}
		rows := make([][]byte, 0, len(ls)*len(rs))
		for _, l := range ls {
			for _, r := range rs {
				row := make([]byte, 0, len(l)+len(r))
				rows = append(rows, append(append(row, l...), r...))
			}
		}
		out[p] = rows
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("mapred: %s: %w", op, err)
	}
	return out, nil
}

// writeRun writes recs as one run file; no records, no file (nil run).
func (e *Engine) writeRun(dir *spill.Dir, recs [][]byte) (*spill.Run, error) {
	if len(recs) == 0 {
		return nil, nil
	}
	w, err := dir.NewRun()
	if err != nil {
		return nil, err
	}
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			w.Abort()
			return nil, err
		}
	}
	run, err := w.Finish()
	if err != nil {
		return nil, err
	}
	e.stats.bytesSpilled.Add(run.Bytes)
	return run, nil
}

// readRun appends the records of r (nil: none) to recs. The records share
// one allocation sized from what the writer counted, never from the file's
// own length fields; a run that ends early — even cleanly, on a frame
// boundary — is an error.
func (e *Engine) readRun(r *spill.Run, recs [][]byte) ([][]byte, error) {
	if r == nil {
		return recs, nil
	}
	rd, err := r.Open()
	if err != nil {
		return nil, err
	}
	defer rd.Close()
	slab := make([]byte, 0, r.Bytes)
	for got := int64(0); ; got++ {
		rec, err := rd.Next()
		if err == io.EOF {
			if got != r.Records {
				return nil, fmt.Errorf("run %s holds %d records, %d were written", r.Path, got, r.Records)
			}
			e.stats.bytesRead.Add(r.Bytes)
			return recs, nil
		}
		if err != nil {
			return nil, err
		}
		start := len(slab)
		slab = append(slab, rec...)
		recs = append(recs, slab[start:len(slab):len(slab)])
	}
}

// parallel runs f over [0,n) with at most e.workers goroutines, returning
// the first error.
func (e *Engine) parallel(n int, f func(i int) error) error {
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	workers := min(e.workers, n)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := f(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}
