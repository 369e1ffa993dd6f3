package engine

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"unsafe"

	"bigdansing/internal/spill"
)

// budgetCtx builds a context whose memory budget is far below the working
// set of the tests' datasets, with spill files confined to a fresh temp dir
// so leftovers are detectable.
func budgetCtx(t *testing.T, parallelism int, budget int64) (*Context, string) {
	t.Helper()
	dir := t.TempDir()
	ctx := mustContext(t, Config{
		Parallelism:       parallelism,
		MemoryBudgetBytes: budget,
		SpillDir:          dir,
	})
	return ctx, dir
}

// assertNoLeftovers fails if the operator left spill files behind.
func assertNoLeftovers(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read spill dir: %v", err)
	}
	if len(entries) != 0 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("leftover spill files: %v", names)
	}
}

// assertBudgetQuiescent fails if reservations leaked or the peak exceeded
// the budget — the manager's core invariant.
func assertBudgetQuiescent(t *testing.T, ctx *Context) {
	t.Helper()
	mm := ctx.MemoryManager()
	if r := mm.Reserved(); r != 0 {
		t.Fatalf("leaked reservation: %d bytes still held", r)
	}
	if p, b := mm.Peak(), mm.Budget(); p > b {
		t.Fatalf("peak reservation %d exceeded budget %d", p, b)
	}
}

func spillPairs(n int) []Pair[string, int] {
	r := rand.New(rand.NewSource(11))
	pairs := make([]Pair[string, int], n)
	for i := range pairs {
		pairs[i] = KV(fmt.Sprintf("key-%04d", r.Intn(n/8+1)), i)
	}
	return pairs
}

func TestGroupByKeyExternalMatchesInMemory(t *testing.T) {
	pairs := spillPairs(20000)

	want, err := GroupByKey(Parallelize(New(4), pairs, 8)).Collect()
	if err != nil {
		t.Fatal(err)
	}
	ctx, dir := budgetCtx(t, 4, 64<<10)
	got, err := GroupByKey(Parallelize(ctx, pairs, 8)).Collect()
	if err != nil {
		t.Fatal(err)
	}

	sn := ctx.Stats().Snapshot()
	if sn.BytesSpilled == 0 || sn.SpillRuns == 0 {
		t.Fatalf("expected spilling under a %d-byte budget, stats: %+v", 64<<10, sn)
	}
	if sn.PeakReservedBytes > 64<<10 {
		t.Fatalf("peak reserved %d exceeds budget", sn.PeakReservedBytes)
	}
	assertBudgetQuiescent(t, ctx)
	assertNoLeftovers(t, dir)

	// Group iteration order differs between the regimes (merge order vs
	// first-seen order); the groups themselves — and the value order inside
	// each group — must match exactly.
	if len(got) != len(want) {
		t.Fatalf("group count %d != %d", len(got), len(want))
	}
	wantByKey := make(map[string][]int, len(want))
	for _, g := range want {
		wantByKey[g.Key] = g.Value
	}
	for _, g := range got {
		w, ok := wantByKey[g.Key]
		if !ok {
			t.Fatalf("unexpected group %q", g.Key)
		}
		if len(w) != len(g.Value) {
			t.Fatalf("group %q has %d values, want %d", g.Key, len(g.Value), len(w))
		}
		for i := range w {
			if w[i] != g.Value[i] {
				t.Fatalf("group %q value order diverged at %d: %d != %d", g.Key, i, g.Value[i], w[i])
			}
		}
	}
}

func TestReduceByKeyExternalMatchesInMemory(t *testing.T) {
	pairs := spillPairs(20000)
	sum := func(a, b int) int { return a + b }

	want, err := ReduceByKey(Parallelize(New(4), pairs, 8), sum).Collect()
	if err != nil {
		t.Fatal(err)
	}
	ctx, dir := budgetCtx(t, 4, 32<<10)
	got, err := ReduceByKey(Parallelize(ctx, pairs, 8), sum).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if sn := ctx.Stats().Snapshot(); sn.BytesSpilled == 0 {
		t.Fatalf("expected spilling, stats: %+v", sn)
	}
	assertBudgetQuiescent(t, ctx)
	assertNoLeftovers(t, dir)

	wantByKey := make(map[string]int, len(want))
	for _, kv := range want {
		wantByKey[kv.Key] = kv.Value
	}
	if len(got) != len(want) {
		t.Fatalf("key count %d != %d", len(got), len(want))
	}
	for _, kv := range got {
		w, ok := wantByKey[kv.Key]
		if !ok || w != kv.Value {
			t.Fatalf("key %q: got %d want %d (present=%v)", kv.Key, kv.Value, w, ok)
		}
	}
}

// TestRangePartitionByExternalIdenticalOutput checks the order-preserving
// scatter produces element-for-element identical partitions to the
// in-memory path — the property OCJoin's determinism rests on.
func TestRangePartitionByExternalIdenticalOutput(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	data := make([]int, 25000)
	for i := range data {
		data[i] = r.Intn(1000)
	}
	less := func(a, b int) bool { return a < b }

	collectParts := func(ctx *Context) [][]int {
		d := RangePartitionBy(Parallelize(ctx, data, 8), less, 4)
		parts, err := d.forced()
		if err != nil {
			t.Fatal(err)
		}
		return parts
	}
	want := collectParts(New(4))
	ctx, dir := budgetCtx(t, 4, 16<<10)
	got := collectParts(ctx)

	if sn := ctx.Stats().Snapshot(); sn.BytesSpilled == 0 {
		t.Fatalf("expected spilling, stats: %+v", sn)
	}
	assertBudgetQuiescent(t, ctx)
	assertNoLeftovers(t, dir)

	if len(got) != len(want) {
		t.Fatalf("partition count %d != %d", len(got), len(want))
	}
	for p := range want {
		if len(got[p]) != len(want[p]) {
			t.Fatalf("partition %d length %d != %d", p, len(got[p]), len(want[p]))
		}
		for i := range want[p] {
			if got[p][i] != want[p][i] {
				t.Fatalf("partition %d element %d: %d != %d", p, i, got[p][i], want[p][i])
			}
		}
	}
}

// TestExternalOperatorPanicReleasesResources checks the operator-panic path
// of the spill regime: a panicking user function inside a spilled stage
// must surface as the usual attributed stage error, leave no run files on
// disk, and return every budget reservation.
func TestExternalOperatorPanicReleasesResources(t *testing.T) {
	pairs := spillPairs(20000)

	t.Run("panic in reduce combine", func(t *testing.T) {
		ctx, dir := budgetCtx(t, 4, 32<<10)
		bad := func(a, b int) int { panic("combine exploded") }
		_, err := ReduceByKey(Parallelize(ctx, pairs, 8), bad).Collect()
		if err == nil || !strings.Contains(err.Error(), "combine exploded") {
			t.Fatalf("want attributed panic error, got %v", err)
		}
		assertBudgetQuiescent(t, ctx)
		assertNoLeftovers(t, dir)
	})

	t.Run("panic in upstream filter", func(t *testing.T) {
		// The narrow chain runs (fused) before the spill stage; its panic
		// must not leave the external operator holding anything.
		ctx, dir := budgetCtx(t, 4, 32<<10)
		d := Filter(Parallelize(ctx, pairs, 8), func(p Pair[string, int]) bool {
			if p.Value == 7777 {
				panic("filter exploded")
			}
			return true
		})
		_, err := GroupByKey(d).Collect()
		if err == nil || !strings.Contains(err.Error(), "filter exploded") {
			t.Fatalf("want attributed panic error, got %v", err)
		}
		if !strings.Contains(err.Error(), "Filter") {
			t.Fatalf("panic not attributed to the filter operator: %v", err)
		}
		assertBudgetQuiescent(t, ctx)
		assertNoLeftovers(t, dir)
	})

	t.Run("panic in range less", func(t *testing.T) {
		ctx, dir := budgetCtx(t, 4, 16<<10)
		var n atomic.Int64
		badLess := func(a, b int) bool {
			if n.Add(1) > 50000 { // deep into the spilled scatter
				panic("less exploded")
			}
			return a < b
		}
		data := make([]int, 30000)
		for i := range data {
			data[i] = i % 997
		}
		_, err := RangePartitionBy(Parallelize(ctx, data, 4), badLess, 0).Collect()
		if err == nil || !strings.Contains(err.Error(), "less exploded") {
			t.Fatalf("want attributed panic error, got %v", err)
		}
		assertBudgetQuiescent(t, ctx)
		assertNoLeftovers(t, dir)
	})
}

// TestNoBudgetTakesInMemoryPath checks the dispatch rule: without a budget
// the registered codecs are inert and nothing spills.
func TestNoBudgetTakesInMemoryPath(t *testing.T) {
	ctx := New(4)
	pairs := spillPairs(5000)
	if _, err := GroupByKey(Parallelize(ctx, pairs, 8)).Collect(); err != nil {
		t.Fatal(err)
	}
	sn := ctx.Stats().Snapshot()
	if sn.BytesSpilled != 0 || sn.SpillRuns != 0 || sn.PeakReservedBytes != 0 {
		t.Fatalf("in-memory run recorded spill activity: %+v", sn)
	}
}

// TestGenerousBudgetSpillsNothing checks a budget above the working set
// keeps everything in the buffering phase — runs are never written, yet
// results flow through the merge machinery unchanged.
func TestGenerousBudgetSpillsNothing(t *testing.T) {
	pairs := spillPairs(2000)
	ctx, dir := budgetCtx(t, 4, 1<<30)
	got, err := GroupByKey(Parallelize(ctx, pairs, 8)).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if sn := ctx.Stats().Snapshot(); sn.SpillRuns != 0 {
		t.Fatalf("generous budget still wrote runs: %+v", sn)
	}
	if sn := ctx.Stats().Snapshot(); sn.PeakReservedBytes == 0 {
		t.Fatal("budgeted run should record reservations")
	}
	assertBudgetQuiescent(t, ctx)
	assertNoLeftovers(t, dir)
	want, err := GroupByKey(Parallelize(New(4), pairs, 8)).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("group count %d != %d", len(got), len(want))
	}
}

// TestSpillSourcesHoldWithinBudget checks that what the spill stage's
// sources hold — each record buffer's slots and its slabs (no record here
// outgrows a slab) — is what they have reserved, and that it fits the
// budget, when more source partitions than tasks each keep an in-memory run
// until the merge.
func TestSpillSourcesHoldWithinBudget(t *testing.T) {
	pairs := spillPairs(20000)
	for _, budget := range []int64{64 << 10, 1 << 20} {
		ctx, dir := budgetCtx(t, 4, budget)
		parts, err := Parallelize(ctx, pairs, 8).forced()
		if err != nil {
			t.Fatal(err)
		}
		spillDir := spill.NewDir(ctx.spillDir, "test")
		sources, err := externalGroupRuns(ctx, "test", spillDir, &spillStats{}, parts, 4,
			pairKey[string, int], pairValue[string, int], StringCodec(), varintCodec[int]())
		if err != nil {
			t.Fatal(err)
		}
		var held, reserved int64
		for _, s := range sources {
			held += int64(cap(s.keys))*int64(unsafe.Sizeof(runKey{})) + int64(cap(s.mem))*int64(unsafe.Sizeof(spillRec{}))
			for _, sl := range s.slabs {
				held += int64(cap(sl))
			}
			reserved += s.reserved
		}
		if held != reserved || reserved > budget || ctx.mem.Reserved() != reserved {
			t.Errorf("budget %d: sources hold %d bytes, reserved %d (manager %d)", budget, held, reserved, ctx.mem.Reserved())
		}
		releaseSources(ctx, sources)
		spillDir.Cleanup()
		assertBudgetQuiescent(t, ctx)
		assertNoLeftovers(t, dir)
	}
}

// TestSpillBufferFitsTaskShare checks the sizing rule that keeps running
// tasks within the budget: a task's record buffer holds no more records than
// the task has, nor more than its share of the budget pays for at the first
// record's cost, however many records the task has.
func TestSpillBufferFitsTaskShare(t *testing.T) {
	ctx, _ := budgetCtx(t, 4, 64<<10)
	r := spillRec{hash: 1, key: []byte("key-0001"), val: []byte{2}}
	for _, n := range []int{1, 100, 1 << 20} {
		sp := newKVSpiller(ctx, nil, nil)
		sp.n, sp.share = n, 8<<10
		sp.presize(r)
		if c := cap(sp.buf); c < 1 || c > n || int64(c)*(sp.slot+kvCost(r)) > sp.share {
			t.Errorf("%d records, %d-byte share: buffer of %d %d-byte slots", n, sp.share, c, sp.slot)
		}
	}
}

// TestRunSortMatchesStableSort checks the run sort against a stable sort of
// the buffer: spillers ordered by a comparison, with hash collisions made
// frequent by a four-value hash, and spillers in arrival order.
func TestRunSortMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(300)
		keys := make([]runKey, n)
		buf := make([]spillRec, n)
		for i := range buf {
			h := uint64(r.Intn(4))
			if trial%2 == 1 {
				h = 0 // scatter spillers carry no hash
			}
			buf[i] = spillRec{hash: h, key: []byte(fmt.Sprint(r.Intn(6))), val: []byte(fmt.Sprint(i))}
			keys[i] = runKey{dst: uint32(r.Intn(3)), seq: uint32(i), hash: h}
		}
		sp := &spiller[spillRec]{order: kvCompare, keys: keys, buf: buf}
		if trial%2 == 1 {
			sp.order = nil
		}
		want := slices.Clone(keys)
		slices.SortStableFunc(want, func(a, b runKey) int {
			if c := cmp.Compare(a.dst, b.dst); c != 0 {
				return c
			}
			if c := cmp.Compare(a.hash, b.hash); c != 0 {
				return c
			}
			if sp.order == nil {
				return 0
			}
			return bytes.Compare(buf[a.seq].key, buf[b.seq].key)
		})
		sp.sortRun()
		if !slices.Equal(sp.keys, want) {
			t.Fatalf("trial %d (order=%v): run order differs from the stable sort\n got %v\nwant %v",
				trial, sp.order != nil, sp.keys, want)
		}
	}
}
