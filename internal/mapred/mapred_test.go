package mapred

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

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

// testParts builds nSrc source partitions of per records each, addressed
// round-robin to n destinations.
func testParts(nSrc, per, n int) [][]engine.EncodedRec {
	parts := make([][]engine.EncodedRec, nSrc)
	for src := range parts {
		for i := 0; i < per; i++ {
			parts[src] = append(parts[src], engine.EncodedRec{
				Dst:  uint32((src + i) % n),
				Data: []byte(fmt.Sprintf("record %d of source %d", i, src)),
			})
		}
	}
	return parts
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
	if _, err := e.Cartesian("cartesian", [][][]byte{{[]byte("a")}, nil}, [][]byte{[]byte("x"), []byte("y")}); err != nil {
		t.Fatal(err)
	}
	if e.Stats().BytesSpilled() == before {
		t.Error("cartesian should go through disk too")
	}
}

func TestBinaryValuesSurviveSpill(t *testing.T) {
	e, _ := newTestEngine(t, 2)
	payload := []byte{0, 1, 2, 255, 254, 10, 13, 0}
	out, err := e.Shuffle("shuffle", [][]engine.EncodedRec{{{Dst: 0, Data: payload}}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || len(out[0]) != 1 || string(out[0][0]) != string(payload) {
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
	parts[2][19].Dst = 4 // out of range, after run files exist
	if _, err := e.Shuffle("shuffle", parts, 4); err == nil {
		t.Fatal("a record addressed past the last partition should fail the shuffle")
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
				total += len(p)
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
	keyed := engine.KeyBy(pts, func(p point) int { return p.X })
	_, err = engine.GroupByKey(keyed).Collect()
	if err == nil || !strings.Contains(err.Error(), "mapred.point") {
		t.Errorf("GroupByKey over a codec-less value: err = %v, want one naming mapred.point", err)
	}
	_, err = engine.SortBy(pts, func(a, b point) bool { return a.X < b.X }, 2).Collect()
	if err == nil || !strings.Contains(err.Error(), "mapred.point") {
		t.Errorf("SortBy over a codec-less type: err = %v, want one naming mapred.point", err)
	}
	_, err = engine.Cartesian(pts, engine.Parallelize(ctx, []int{1}, 0)).Collect()
	if err == nil || !strings.Contains(err.Error(), "mapred.point") {
		t.Errorf("Cartesian over a codec-less type: err = %v, want one naming mapred.point", err)
	}
	if e.Stats().BytesSpilled() != 0 {
		t.Error("a refused exchange wrote run files")
	}
}
