package spill

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestManagerBudgetInvariant(t *testing.T) {
	m := NewManager(1000)
	if !m.TryReserve(600) {
		t.Fatal("first reservation should fit")
	}
	if m.TryReserve(500) {
		t.Fatal("overcommit should be refused")
	}
	if !m.TryReserve(400) {
		t.Fatal("exact fit should succeed")
	}
	if m.Reserved() != 1000 || m.Peak() != 1000 {
		t.Fatalf("reserved=%d peak=%d", m.Reserved(), m.Peak())
	}
	m.Release(1000)
	if m.Reserved() != 0 {
		t.Fatalf("reserved=%d after release", m.Reserved())
	}
	if m.Peak() != 1000 {
		t.Fatalf("peak should persist: %d", m.Peak())
	}
}

func TestManagerConcurrentNeverExceedsBudget(t *testing.T) {
	const budget = 1 << 20
	m := NewManager(budget)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			held := int64(0)
			for i := 0; i < 5000; i++ {
				n := int64(r.Intn(4096) + 1)
				if m.TryReserve(n) {
					held += n
				} else if held > 0 {
					m.Release(held)
					held = 0
				}
			}
			m.Release(held)
		}(int64(w))
	}
	wg.Wait()
	if m.Reserved() != 0 {
		t.Fatalf("leaked reservation: %d", m.Reserved())
	}
	if p := m.Peak(); p > budget {
		t.Fatalf("peak %d exceeds budget %d", p, budget)
	}
}

func TestNilManagerIsUnbounded(t *testing.T) {
	var m *Manager
	if !m.TryReserve(1 << 40) {
		t.Fatal("nil manager must accept everything")
	}
	m.Release(1 << 40)
	if m.Budget() != 0 || m.Peak() != 0 || m.Reserved() != 0 {
		t.Fatal("nil manager must report zeros")
	}
}

func TestRunRoundTrip(t *testing.T) {
	d := NewDir(t.TempDir(), "test")
	defer d.Cleanup()
	if d.Path() != "" {
		t.Fatal("dir must be lazy")
	}
	w, err := d.NewRun()
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(42))
	var want [][]byte
	for i := 0; i < 2000; i++ {
		rec := make([]byte, r.Intn(700)) // spans several frames incl empty records
		r.Read(rec)
		want = append(want, rec)
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if run.Records != 2000 {
		t.Fatalf("records = %d", run.Records)
	}
	rd, err := run.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	for i, wrec := range want {
		got, err := rd.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, wrec) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestReaderDetectsCorruption(t *testing.T) {
	d := NewDir(t.TempDir(), "corrupt")
	defer d.Cleanup()
	w, err := d.NewRun()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := w.Append([]byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(run.Path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff // flip a payload bit
	if err := os.WriteFile(run.Path, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	rd, err := run.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	for {
		if _, err := rd.Next(); err != nil {
			if err == io.EOF {
				t.Fatal("corruption not detected")
			}
			return // checksum error, as intended
		}
	}
}

func TestDirCleanupRemovesRuns(t *testing.T) {
	base := t.TempDir()
	d := NewDir(base, "cleanup")
	for i := 0; i < 3; i++ {
		w, err := d.NewRun()
		if err != nil {
			t.Fatal(err)
		}
		w.Append([]byte("x"))
		if _, err := w.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	path := d.Path()
	if path == "" {
		t.Fatal("dir should exist after spilling")
	}
	if err := d.Cleanup(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("spill dir should be gone: %v", err)
	}
	left, _ := filepath.Glob(filepath.Join(base, "*"))
	if len(left) != 0 {
		t.Fatalf("leftover files: %v", left)
	}
	if err := d.Cleanup(); err != nil {
		t.Fatal("cleanup must be idempotent")
	}
}

// TestOversizedRecordsStayOutOfThePool: a record larger than a frame forms
// a frame of its own, round-trips intact between ordinary records, and the
// buffer it grew (writer side) or needed (reader side) is not pooled; only
// pool-sized buffers come back out of the pool.
func TestOversizedRecordsStayOutOfThePool(t *testing.T) {
	d := NewDir(t.TempDir(), "oversized")
	defer d.Cleanup()
	w, err := d.NewRun()
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("x"), 2*frameTarget+3)
	want := [][]byte{[]byte("before"), big, []byte("after")}
	for _, rec := range want {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rd, err := run.Open()
	if err != nil {
		t.Fatal(err)
	}
	for i, wrec := range want {
		got, err := rd.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, wrec) {
			t.Fatalf("record %d: %d bytes, want %d", i, len(got), len(wrec))
		}
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
	rd.Close()
	for {
		b, ok := takeFrame()
		if !ok {
			break
		}
		if cap(b) != frameHeader+frameTarget {
			t.Fatalf("the pool held a %d-byte buffer", cap(b))
		}
	}
}
