package mapred

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"bigdansing/internal/engine"
	"bigdansing/internal/spill"
)

func newTestEngine(t *testing.T, workers int) (*Engine, string) {
	t.Helper()
	dir := t.TempDir()
	e, err := New(dir, workers)
	if err != nil {
		t.Fatal(err)
	}
	return e, dir
}

// testParts builds the runs of nSrc source partitions of per records each,
// addressed round-robin to n destinations.
func testParts(nSrc, per, n int) [][][]byte {
	parts := make([][][]byte, nSrc)
	for src := range parts {
		parts[src] = make([][]byte, n)
		for i := 0; i < per; i++ {
			dst := (src + i) % n
			parts[src][dst] = engine.AppendRecord(parts[src][dst], []byte(fmt.Sprintf("record %d of source %d", i, src)))
		}
	}
	return parts
}

// runOf is the run holding recs.
func runOf(recs ...string) []byte {
	var run []byte
	for _, r := range recs {
		run = engine.AppendRecord(run, []byte(r))
	}
	return run
}

// countRecords is the number of records in run; a corrupt run fails the
// test (from any goroutine).
func countRecords(t *testing.T, run []byte) int {
	t.Helper()
	n := 0
	rd := engine.ReadRun(run, -1)
	for _, ok := rd.Next(); ok; _, ok = rd.Next() {
		n++
	}
	if err := rd.Err(); err != nil {
		t.Error(err)
	}
	return n
}

// leftovers lists the engine-made entries under dir.
func leftovers(t *testing.T, dir string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "bigdansing-*"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestStatsRecordDiskTraffic(t *testing.T) {
	e, _ := newTestEngine(t, 2)
	if _, err := e.Shuffle("shuffle", testParts(2, 10, 2), 2); err != nil {
		t.Fatal(err)
	}
	if e.Stats().BytesSpilled() == 0 {
		t.Error("spill bytes should be counted")
	}
	if e.Stats().BytesRead() != e.Stats().BytesSpilled() {
		t.Errorf("read %d bytes back of %d spilled", e.Stats().BytesRead(), e.Stats().BytesSpilled())
	}
	before := e.Stats().BytesSpilled()
	if _, err := e.Cartesian("cartesian", [][]byte{runOf("a"), nil}, runOf("x", "y")); err != nil {
		t.Fatal(err)
	}
	if e.Stats().BytesSpilled() == before {
		t.Error("cartesian should go through disk too")
	}
}

func TestBinaryValuesSurviveSpill(t *testing.T) {
	e, _ := newTestEngine(t, 2)
	payload := []byte{0, 1, 2, 255, 254, 10, 13, 0}
	run := engine.AppendRecord(nil, payload)
	out, err := e.Shuffle("shuffle", [][][]byte{{run}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || string(out[0]) != string(run) {
		t.Fatalf("binary payload corrupted: %v", out)
	}
}

// TestCloseKeepsCallersDirectory is the regression test for Close removing
// the directory the caller passed to New, with everything already in it.
func TestCloseKeepsCallersDirectory(t *testing.T) {
	e, dir := newTestEngine(t, 2)
	mine := filepath.Join(dir, "not-the-engines.txt")
	if err := os.WriteFile(mine, []byte("keep me"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Shuffle("shuffle", testParts(3, 20, 4), 4); err != nil {
		t.Fatal(err)
	}
	if got := leftovers(t, dir); len(got) != 0 {
		t.Errorf("left behind after a shuffle: %v", got)
	}
	for i := 0; i < 2; i++ { // idempotent
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(mine); err != nil {
		t.Errorf("Close removed the caller's file: %v", err)
	}
	if got := leftovers(t, dir); len(got) != 0 {
		t.Errorf("left behind after Close: %v", got)
	}
}

func TestFailedShuffleLeavesNothingBehind(t *testing.T) {
	e, dir := newTestEngine(t, 2)
	parts := testParts(3, 20, 4)
	// A last record that claims more bytes than its run holds, written
	// after other run files exist.
	parts[2][3] = append(parts[2][3], 5)
	if _, err := e.Shuffle("shuffle", parts, 4); err == nil {
		t.Fatal("a run with a truncated record should fail the shuffle")
	}
	if got := leftovers(t, dir); len(got) != 0 {
		t.Errorf("left behind after a failed shuffle: %v", got)
	}
}

// TestCorruptRunFailsShuffle damages one bucket between the map and the
// reduce side. Every kind of damage must surface as an error: no panic, no
// silently short partition, no allocation sized by a corrupt length.
func TestCorruptRunFailsShuffle(t *testing.T) {
	damage := map[string]func(b []byte) []byte{
		"truncated mid-frame":       func(b []byte) []byte { return b[:len(b)-3] },
		"truncated to nothing":      func(b []byte) []byte { return nil },
		"bit flipped in payload":    func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b },
		"bit flipped in length":     func(b []byte) []byte { b[3] ^= 0x20; return b }, // claims +512 MB
		"bit flipped in checksum":   func(b []byte) []byte { b[5] ^= 0x01; return b },
		"trailing garbage appended": func(b []byte) []byte { return append(b, 1, 2, 3) },
	}
	for name, f := range damage {
		t.Run(name, func(t *testing.T) {
			e, dir := newTestEngine(t, 2)
			runDir := spill.NewDir(dir, "mr")
			defer runDir.Cleanup()
			runs, err := e.scatter(runDir, testParts(2, 50, 2), 2)
			if err != nil {
				t.Fatal(err)
			}
			path := runs[1][0].Path
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, f(b), 0o600); err != nil {
				t.Fatal(err)
			}
			if _, err := e.gather(runs, 2); err == nil {
				t.Fatal("gather over a damaged run should fail")
			} else if !strings.Contains(err.Error(), filepath.Base(path)) {
				t.Errorf("error should name the run: %v", err)
			}
		})
	}
}

// TestConcurrentExchanges: independent shuffles may overlap on one engine.
func TestConcurrentExchanges(t *testing.T) {
	e, dir := newTestEngine(t, 3)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts := testParts(4, 30+g, 3)
			out, err := e.Shuffle("shuffle", parts, 3)
			if err != nil {
				t.Error(err)
				return
			}
			total := 0
			for _, p := range out {
				total += countRecords(t, p)
			}
			if total != 4*(30+g) {
				t.Errorf("shuffle %d returned %d records, want %d", g, total, 4*(30+g))
			}
		}()
	}
	wg.Wait()
	if got := leftovers(t, dir); len(got) != 0 {
		t.Errorf("left behind: %v", got)
	}
}

func TestNewRejectsAFile(t *testing.T) {
	f := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(f, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := New(f, 2); err == nil {
		t.Error("New over a regular file should fail")
	}
}

// TestCodeclessRecordsAreAnError: a record type without a codec cannot
// cross the disk exchange, and the shuffle says which type, instead of
// quietly grouping in memory.
func TestCodeclessRecordsAreAnError(t *testing.T) {
	type point struct{ X, Y int }
	e, _ := newTestEngine(t, 2)
	ctx, err := engine.NewContext(engine.Config{Parallelism: 2, Exchange: e})
	if err != nil {
		t.Fatal(err)
	}
	pts := engine.Parallelize(ctx, []point{{1, 2}, {3, 4}, {1, 2}}, 0)
	keyed := engine.Map(pts, func(p point) engine.Pair[int, point] { return engine.KV(p.X, p) })
	_, err = engine.GroupByKey(keyed).Collect()
	if err == nil || !strings.Contains(err.Error(), "mapred.point") {
		t.Errorf("GroupByKey over a codec-less value: err = %v, want one naming mapred.point", err)
	}
	_, err = engine.RangePartitionBy(pts, func(a, b point) bool { return a.X < b.X }, 2).Collect()
	if err == nil || !strings.Contains(err.Error(), "mapred.point") {
		t.Errorf("RangePartitionBy over a codec-less type: err = %v, want one naming mapred.point", err)
	}
	_, err = engine.Cartesian(pts, engine.Parallelize(ctx, []int{1}, 0)).Collect()
	if err == nil || !strings.Contains(err.Error(), "mapred.point") {
		t.Errorf("Cartesian over a codec-less type: err = %v, want one naming mapred.point", err)
	}
	if e.Stats().BytesSpilled() != 0 {
		t.Error("a refused exchange wrote run files")
	}
}

// TestExchangeBytesPerRecord pins what the disk exchange allocates for each
// record it moves: an exchanged GroupByKey of 20 000 int pairs into 500
// groups on an in-process engine, less the grouped output (one Pair per
// group and one int per value). The bytes left are the encoding, the run
// files' reading back, the decode and the grouping's own working memory:
// 14–18 bytes a record, up to 27 under the race detector (whose pools drop
// buffers), where moving each record as a slice of its own took 123.
func TestExchangeBytesPerRecord(t *testing.T) {
	const records, maxPerRecord = 20000, 32
	e, _ := newTestEngine(t, 2)
	ctx, err := engine.NewContext(engine.Config{Parallelism: 2, Exchange: e})
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([]engine.Pair[int, int], records)
	for i := range pairs {
		pairs[i] = engine.KV(i%500, i)
	}
	d := engine.Parallelize(ctx, pairs, 2)
	group := func() (groups int) {
		g := engine.GroupByKey(d)
		if err := g.Err(); err != nil {
			t.Fatal(err)
		}
		for p := range g.NumPartitions() {
			groups += len(g.Partition(p))
		}
		return groups
	}
	// The least of a few runs, each after a warm-up, so that a collection
	// emptying the engine's pools mid-run does not count.
	perRecord := math.Inf(1)
	for range 5 {
		group()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		groups := group()
		runtime.ReadMemStats(&after)
		output := groups*int(unsafe.Sizeof(engine.Pair[int, []int]{})) + records*int(unsafe.Sizeof(0))
		perRecord = min(perRecord, float64(int64(after.TotalAlloc-before.TotalAlloc)-int64(output))/records)
	}
	t.Logf("%.1f bytes allocated per moved record", perRecord)
	if perRecord > maxPerRecord {
		t.Errorf("the disk exchange allocated %.1f bytes per moved record, want at most %d", perRecord, maxPerRecord)
	}
}
