package spill

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// readSlack is what reading a run may allocate beyond the bytes its writer
// recorded: the open file and the error that reports damage.
const readSlack = 16 << 10

// FuzzSpillRead reads arbitrary bytes as a run file whose writer recorded
// as many bytes as the file holds. The corpus under testdata/fuzz starts
// from whole runs damaged the ways TestReaderDetectsCorruption and mapred's
// TestCorruptRunFailsShuffle damage them. No input may panic, and reading
// one may not allocate more than the recorded Run.Bytes plus readSlack: a
// frame length is trusted only as far as the bytes left, and the frame
// buffer comes from the pool or is sized to the frame.
func FuzzSpillRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "run")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		run := &Run{Path: path, Bytes: int64(len(data))}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rd, err := run.Open()
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := rd.Next(); err != nil {
				break
			}
		}
		rd.Close()
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(len(data))+readSlack {
			t.Fatalf("reading a %d-byte run allocated %d bytes", len(data), grew)
		}
	})
}
