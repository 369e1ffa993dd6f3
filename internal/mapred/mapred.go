// Package mapred is the disk exchange: the substrate of the
// BigDansing-Hadoop backend of the paper's multi-node experiments (Figures
// 10a and 10c, Appendix G.2), expressed as an engine.Exchange. A Context
// built with engine.Config{Exchange: eng} runs the one executor unchanged;
// the only difference from the in-memory backend is that every partition
// exchange materialises on disk — each source→destination run is written as
// a CRC-framed internal/spill run file and read back by the destination task
// — so the Hadoop-vs-Spark gap of the paper reproduces from file I/O
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

// Shuffle writes every source→destination run as one run file (the map
// side), then has each destination read its runs back in source order (the
// reduce side), which is the Exchange ordering contract.
func (e *Engine) Shuffle(op string, runs [][][]byte, n int) ([][]byte, error) {
	dir := spill.NewDir(e.base, "mr")
	defer dir.Cleanup()
	files, err := e.scatter(dir, runs, n)
	if err != nil {
		return nil, fmt.Errorf("mapred: %s: %w", op, err)
	}
	out, err := e.gather(files, n)
	if err != nil {
		return nil, fmt.Errorf("mapred: %s: %w", op, err)
	}
	return out, nil
}

// scatter is the map side: files[src][dst] holds source partition src's
// run for destination dst, nil where it is empty.
func (e *Engine) scatter(dir *spill.Dir, runs [][][]byte, n int) ([][]*spill.Run, error) {
	files := make([][]*spill.Run, len(runs))
	err := e.parallel(len(runs), func(src int) error {
		if len(runs[src]) != n {
			return fmt.Errorf("source %d has runs for %d destinations, not %d", src, len(runs[src]), n)
		}
		files[src] = make([]*spill.Run, n)
		for dst, run := range runs[src] {
			f, err := e.writeRun(dir, run)
			if err != nil {
				return err
			}
			files[src][dst] = f
		}
		return nil
	})
	return files, err
}

// gather is the reduce side: destination dst reads its run files back, in
// source-partition order, into one run sized by the bytes written.
func (e *Engine) gather(files [][]*spill.Run, n int) ([][]byte, error) {
	out := make([][]byte, n)
	err := e.parallel(n, func(dst int) error {
		var size int64
		for _, bySrc := range files {
			if f := bySrc[dst]; f != nil {
				size += f.Bytes
			}
		}
		run := make([]byte, 0, size)
		for _, bySrc := range files {
			var err error
			if run, err = e.readRun(bySrc[dst], run); err != nil {
				return err
			}
		}
		out[dst] = run
		return nil
	})
	return out, err
}

// Cartesian writes the right run once (the broadcast side, Hadoop's
// distributed cache) and every left run as run files; each left
// partition's task then reads both back and expands the cross product.
func (e *Engine) Cartesian(op string, left [][]byte, right []byte) ([][]byte, error) {
	dir := spill.NewDir(e.base, "mr")
	defer dir.Cleanup()
	rightFile, err := e.writeRun(dir, right)
	if err != nil {
		return nil, fmt.Errorf("mapred: %s: %w", op, err)
	}
	out := make([][]byte, len(left))
	err = e.parallel(len(left), func(p int) error {
		leftFile, err := e.writeRun(dir, left[p])
		if err != nil {
			return err
		}
		l, err := e.readRun(leftFile, nil)
		if err != nil {
			return err
		}
		r, err := e.readRun(rightFile, nil)
		if err != nil {
			return err
		}
		out[p], err = engine.CrossRuns(l, r)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("mapred: %s: %w", op, err)
	}
	return out, nil
}

// writeRun writes the records of run as one run file; an empty run, no
// file (nil).
func (e *Engine) writeRun(dir *spill.Dir, run []byte) (*spill.Run, error) {
	if len(run) == 0 {
		return nil, nil
	}
	w, err := dir.NewRun()
	if err != nil {
		return nil, err
	}
	rd := engine.ReadRun(run, -1)
	for rec, ok := rd.Next(); ok; rec, ok = rd.Next() {
		if err := w.Append(rec); err != nil {
			w.Abort()
			return nil, err
		}
	}
	if err := rd.Err(); err != nil {
		w.Abort()
		return nil, err
	}
	f, err := w.Finish()
	if err != nil {
		return nil, err
	}
	e.stats.bytesSpilled.Add(f.Bytes)
	return f, nil
}

// readRun appends the records of f (nil: none) to run. A file that ends
// early — even cleanly, on a frame boundary — is an error.
func (e *Engine) readRun(f *spill.Run, run []byte) ([]byte, error) {
	if f == nil {
		return run, nil
	}
	rd, err := f.Open()
	if err != nil {
		return nil, err
	}
	defer rd.Close()
	for got := int64(0); ; got++ {
		rec, err := rd.Next()
		if err == io.EOF {
			if got != f.Records {
				return nil, fmt.Errorf("run %s holds %d records, %d were written", f.Path, got, f.Records)
			}
			e.stats.bytesRead.Add(f.Bytes)
			return run, nil
		}
		if err != nil {
			return nil, err
		}
		run = engine.AppendRecord(run, rec)
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
