package netexec

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"bigdansing/internal/engine"
	"bigdansing/internal/mapred"
)

// The cross-backend equivalence property: any plan the engine can run must
// produce element-for-element identical results on the in-process backend
// and behind every Exchange — the networked one for every worker count and
// the disk one — including the values that break naive encodings (NaN
// payloads, negative zero) and the shapes that break naive exchanges (empty
// partitions, empty datasets).

func newNetCtx(t *testing.T, workers int) *engine.Context {
	t.Helper()
	ctx, err := engine.NewContext(engine.Config{Parallelism: 4, Backend: engine.BackendNet, NetWorkers: workers})
	if err != nil {
		t.Fatalf("net context (%d workers): %v", workers, err)
	}
	t.Cleanup(func() { ctx.Close() })
	return ctx
}

func newDiskCtx(t *testing.T) *engine.Context {
	t.Helper()
	eng, err := mapred.New(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := engine.NewContext(engine.Config{Parallelism: 4, Exchange: eng})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctx.Close() })
	return ctx
}

// backend is one row of the equivalence table: a non-local context to
// compare with the in-process one.
type backend struct {
	name string
	ctx  func(t *testing.T) *engine.Context
}

// backends lists the networked backend at each given worker count, then the
// disk backend.
func backends(netWorkers ...int) []backend {
	var bs []backend
	for _, w := range netWorkers {
		bs = append(bs, backend{fmt.Sprintf("net/workers=%d", w),
			func(t *testing.T) *engine.Context { return newNetCtx(t, w) }})
	}
	return append(bs, backend{"disk", newDiskCtx})
}

// genPairs builds a deterministic mix of string keys and adversarial
// float64 values: NaN, -0, +0, both infinities and ordinary values.
func genPairs(seed int64, n int) []engine.Pair[string, float64] {
	r := rand.New(rand.NewSource(seed))
	specials := []float64{
		math.NaN(),
		math.Copysign(0, -1),
		0,
		math.Inf(1),
		math.Inf(-1),
	}
	out := make([]engine.Pair[string, float64], n)
	for i := range out {
		v := r.NormFloat64() * 1000
		if r.Intn(4) == 0 {
			v = specials[r.Intn(len(specials))]
		}
		out[i] = engine.KV(fmt.Sprintf("k%02d", r.Intn(17)), v)
	}
	return out
}

// bitsEqual compares float64s by bit pattern so NaN == NaN and -0 != +0.
func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func groupsEqual(t *testing.T, label string, a, b []engine.Pair[string, []float64]) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: group count %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i].Key != b[i].Key {
			t.Fatalf("%s: group %d key %q vs %q", label, i, a[i].Key, b[i].Key)
		}
		if len(a[i].Value) != len(b[i].Value) {
			t.Fatalf("%s: group %q size %d vs %d", label, a[i].Key, len(a[i].Value), len(b[i].Value))
		}
		for j := range a[i].Value {
			if !bitsEqual(a[i].Value[j], b[i].Value[j]) {
				t.Fatalf("%s: group %q value %d: %x vs %x", label, a[i].Key, j,
					math.Float64bits(a[i].Value[j]), math.Float64bits(b[i].Value[j]))
			}
		}
	}
}

// TestGroupByKeyMatchesLocal shuffles adversarial pairs through 1..5 worker
// processes and through disk, and requires byte-identical grouping versus
// the in-process backend, including over more partitions than records
// (empty partitions) and the empty dataset.
func TestGroupByKeyMatchesLocal(t *testing.T) {
	for _, n := range []int{0, 3, 500} {
		data := genPairs(42, n)
		local := engine.New(4)
		want, err := engine.GroupByKey(engine.Parallelize(local, data, 8)).Collect()
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range backends(1, 2, 3, 4, 5) {
			t.Run(fmt.Sprintf("n=%d/%s", n, b.name), func(t *testing.T) {
				ctx := b.ctx(t)
				got, err := engine.GroupByKey(engine.Parallelize(ctx, data, 8)).Collect()
				if err != nil {
					t.Fatal(err)
				}
				groupsEqual(t, "groupByKey", want, got)
			})
		}
	}
}

// TestRangePartitionByMatchesLocal runs the range scatter on both backends:
// every output partition must hold the local backend's records, in its
// order.
func TestRangePartitionByMatchesLocal(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	data := make([]int, 4000)
	for i := range data {
		data[i] = r.Intn(1 << 20)
	}
	less := func(a, b int) bool { return a < b }
	local := engine.New(4)
	want := engine.RangePartitionBy(engine.Parallelize(local, data, 6), less, 6)
	if err := want.Err(); err != nil {
		t.Fatal(err)
	}
	for _, b := range backends(1, 3, 5) {
		got := engine.RangePartitionBy(engine.Parallelize(b.ctx(t), data, 6), less, 6)
		if err := got.Err(); err != nil {
			t.Fatal(err)
		}
		if got.NumPartitions() != want.NumPartitions() {
			t.Fatalf("%s: %d partitions, want %d", b.name, got.NumPartitions(), want.NumPartitions())
		}
		for p := 0; p < want.NumPartitions(); p++ {
			if !reflect.DeepEqual(want.Partition(p), got.Partition(p)) {
				t.Fatalf("%s: partition %d differs from local", b.name, p)
			}
		}
	}
}

// TestReduceByKeyMatchesLocal is the word-count shape of Section 5.2.
func TestReduceByKeyMatchesLocal(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	words := make([]engine.Pair[string, int], 3000)
	for i := range words {
		words[i] = engine.KV(fmt.Sprintf("w%03d", r.Intn(200)), 1)
	}
	local := engine.New(4)
	want, err := engine.ReduceByKey(engine.Parallelize(local, words, 8),
		func(a, b int) int { return a + b }).Collect()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range backends(3) {
		got, err := engine.ReduceByKey(engine.Parallelize(b.ctx(t), words, 8),
			func(a, b int) int { return a + b }).Collect()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: reduceByKey output differs from local", b.name)
		}
	}
}

// TestCartesianMatchesLocal exercises the exchange-side cross-product
// expansion (concatenation of opaque encodings), including an empty side.
func TestCartesianMatchesLocal(t *testing.T) {
	left := []int{1, 2, 3, 5, 8, 13, 21}
	right := []string{"a", "bb", "", "dddd"}
	for _, rs := range [][]string{right, nil} {
		local := engine.New(4)
		want, err := engine.Cartesian(
			engine.Parallelize(local, left, 3),
			engine.Parallelize(local, rs, 2)).Collect()
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range backends(2) {
			ctx := b.ctx(t)
			got, err := engine.Cartesian(
				engine.Parallelize(ctx, left, 3),
				engine.Parallelize(ctx, rs, 2)).Collect()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: cartesian output differs from local (right=%v)", b.name, rs)
			}
		}
	}
}

// TestDistinctMatchesLocal covers the keyed-dedup composition.
func TestDistinctMatchesLocal(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	data := make([]string, 900)
	for i := range data {
		data[i] = fmt.Sprintf("v%02d", r.Intn(40))
	}
	key := func(s string) string { return s }
	local := engine.New(4)
	want, err := engine.Distinct(engine.Parallelize(local, data, 8), key).Collect()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range backends(4) {
		got, err := engine.Distinct(engine.Parallelize(b.ctx(t), data, 8), key).Collect()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: distinct output differs from local", b.name)
		}
	}
}

// TestExchangeOrderingContract drives Exchange.Shuffle directly: whatever
// moves the bytes, destination d must receive exactly the records addressed
// to it, in (source partition, within-source) order — with empty sources, an
// empty destination and a zero-length record in the mix.
func TestExchangeOrderingContract(t *testing.T) {
	const n = 5
	r := rand.New(rand.NewSource(9))
	runs := make([][][]byte, 7)
	want := make([][][]byte, n)
	for src := range runs {
		runs[src] = make([][]byte, n)
		if src == 2 || src == 6 {
			continue // empty source partitions
		}
		for seq := 0; seq < 40+src; seq++ {
			dst := uint32(r.Intn(n - 1)) // destination n-1 stays empty
			data := []byte(fmt.Sprintf("%d/%d", src, seq))
			if seq == 7 {
				data = []byte{}
			}
			runs[src][dst] = engine.AppendRecord(runs[src][dst], data)
			want[dst] = append(want[dst], data)
		}
	}
	for _, b := range backends(1, 3) {
		got, err := b.ctx(t).Exchange().Shuffle("contract", runs, n)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		if len(got) != n {
			t.Fatalf("%s: %d destinations, want %d", b.name, len(got), n)
		}
		for dst := range want {
			rd := engine.ReadRun(got[dst], len(want[dst]))
			for i := range want[dst] {
				rec, _ := rd.Next()
				if string(rec) != string(want[dst][i]) {
					t.Fatalf("%s: destination %d record %d = %q, want %q", b.name, dst, i, rec, want[dst][i])
				}
			}
			if _, more := rd.Next(); more || rd.Err() != nil {
				t.Fatalf("%s: destination %d does not hold exactly its %d records: %v", b.name, dst, len(want[dst]), rd.Err())
			}
		}
	}
}

// TestNetStatsCountTraffic checks the Observer plumbing: a net-backed
// shuffle must report socket bytes and dials through the context's Stats.
func TestNetStatsCountTraffic(t *testing.T) {
	ctx := newNetCtx(t, 2)
	_, err := engine.GroupByKey(engine.Parallelize(ctx, genPairs(5, 300), 6)).Collect()
	if err != nil {
		t.Fatal(err)
	}
	snap := ctx.Stats().Snapshot()
	if snap.NetBytesSent == 0 || snap.NetBytesRecv == 0 {
		t.Errorf("net bytes not counted: sent=%d recv=%d", snap.NetBytesSent, snap.NetBytesRecv)
	}
	if snap.NetDials == 0 {
		t.Error("net dials not counted")
	}
}
