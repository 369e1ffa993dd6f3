package storage

import (
	"os"
	"path/filepath"
	"testing"

	"bigdansing/internal/model"
)

// fuzzReplicaFiles names the files FuzzStoreRead overwrites, relative to the
// replica directory: the plan and partition 0's id file and column files of
// a sampleRel replica partitioned on zipcode.
var fuzzReplicaFiles = []string{"plan.json", "p0.ids", "p0.c0", "p0.c1", "p0.c2", "p0.c3"}

// uploadFuzzReplica uploads sampleRel(8) on zipcode into two partitions
// under dir and returns the replica directory.
func uploadFuzzReplica(tb testing.TB, dir string) (*Store, string) {
	tb.Helper()
	st, err := Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := st.Upload(sampleRel(8), "zipcode", 2); err != nil {
		tb.Fatal(err)
	}
	return st, st.replicaDir("tax", "zipcode")
}

// FuzzStoreRead overwrites a small replica's plan.json and one partition's
// id and column files with arbitrary bytes, then reads it whole, one
// partition, and through the Block pushdown. Files on disk may have been
// written by anything: a read may fail but must never panic.
func FuzzStoreRead(f *testing.F) {
	_, rep := uploadFuzzReplica(f, f.TempDir())
	valid := make([][]byte, len(fuzzReplicaFiles))
	for i, name := range fuzzReplicaFiles {
		raw, err := os.ReadFile(filepath.Join(rep, name))
		if err != nil {
			f.Fatal(err)
		}
		valid[i] = raw
	}
	f.Add(valid[0], valid[1], valid[2], valid[3], valid[4], valid[5])
	key := model.I(10003)
	f.Fuzz(func(t *testing.T, plan, ids, c0, c1, c2, c3 []byte) {
		st, rep := uploadFuzzReplica(t, t.TempDir())
		for i, raw := range [][]byte{plan, ids, c0, c1, c2, c3} {
			if err := os.WriteFile(filepath.Join(rep, fuzzReplicaFiles[i]), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		for _, opts := range []ReadOptions{{Partition: -1}, {Partition: 0}, {Partition: -1, BlockKey: &key}} {
			rel, err := st.Read("tax", "zipcode", opts)
			if err != nil {
				continue
			}
			for _, tp := range rel.Tuples {
				if len(tp.Cells) != rel.Schema.Len() {
					t.Fatalf("%+v: tuple %d has %d cells, schema %d", opts, tp.ID, len(tp.Cells), rel.Schema.Len())
				}
			}
		}
	})
}
