package engine

import (
	"sync"
	"testing"
)

// testBatch is a minimal RowCounted element: a slice of ints with a live
// count, standing in for model.Batch without importing it (engine must stay
// model-agnostic).
type testBatch struct {
	vals []int
	live int
}

func (b *testBatch) LiveRows() int {
	if b == nil {
		return 0
	}
	return b.live
}

func newTestBatches(chunks ...[]int) []*testBatch {
	out := make([]*testBatch, len(chunks))
	for i, c := range chunks {
		out[i] = &testBatch{vals: c, live: len(c)}
	}
	return out
}

func TestRowsOfCountsBatchRows(t *testing.T) {
	bs := newTestBatches([]int{1, 2, 3}, []int{4}, nil)
	if got := rowsOf(bs); got != 4 {
		t.Fatalf("rowsOf batches = %d, want 4", got)
	}
	// A nil element must not crash: the interface method is nil-safe.
	if got := rowsOf([]*testBatch{nil}); got != 0 {
		t.Fatalf("rowsOf nil batch = %d, want 0", got)
	}
	// Non-batch element types count elements.
	if got := rowsOf([]int{7, 8, 9}); got != 3 {
		t.Fatalf("rowsOf ints = %d, want 3", got)
	}
	if got := rowsOf([]string(nil)); got != 0 {
		t.Fatalf("rowsOf empty = %d, want 0", got)
	}
}

func TestFilterBatchesDropsEmptiedBatches(t *testing.T) {
	ctx := New(2)
	d := Parallelize(ctx, newTestBatches([]int{1, 2, 3}, []int{4, 5}, []int{6}), 0)
	odd := FilterBatches(d, func(b *testBatch) *testBatch {
		var keep []int
		for _, v := range b.vals {
			if v%2 == 1 {
				keep = append(keep, v)
			}
		}
		return &testBatch{vals: keep, live: len(keep)}
	})
	got, err := odd.Collect()
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, b := range got {
		if b.live == 0 {
			t.Fatal("FilterBatches must drop batches with no live rows")
		}
		rows += b.live
	}
	if len(got) != 2 || rows != 3 {
		t.Fatalf("got %d batches with %d rows, want 2 batches / 3 rows (1,3 and 5)", len(got), rows)
	}
}

func TestFlatMapBatchesExpandsToRows(t *testing.T) {
	ctx := New(2)
	d := Parallelize(ctx, newTestBatches([]int{1, 2}, []int{3}), 0)
	rows := FlatMapBatches(d, func(b *testBatch) []int { return b.vals })
	got, err := rows.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("flattened rows = %v", got)
	}
}

// rowAttrObserver captures the records-in/out attributes of task spans, to
// check that batch stages account rows rather than batch handles.
type rowAttrObserver struct {
	mu  sync.Mutex
	in  int64
	out int64
}

type rowAttrSpan struct {
	obs     *rowAttrObserver
	in, out int64
}

func (o *rowAttrObserver) BeginSpan(parent Span, name string, kind SpanKind) Span {
	if kind != SpanTask {
		return discardSpan{}
	}
	return &rowAttrSpan{obs: o}
}

func (o *rowAttrObserver) Count(m Metric, v int64) {}

func (sp *rowAttrSpan) Attr(k Attr, v int64) {
	switch k {
	case AttrRecordsIn:
		sp.in = v
	case AttrRecordsOut:
		sp.out = v
	}
}

func (sp *rowAttrSpan) End() {
	sp.obs.mu.Lock()
	sp.obs.in += sp.in
	sp.obs.out += sp.out
	sp.obs.mu.Unlock()
}

func TestBatchStagesReportRowsNotBatches(t *testing.T) {
	obs := &rowAttrObserver{}
	ctx := mustContext(t, Config{Parallelism: 2, Observer: obs})
	d := Parallelize(ctx, newTestBatches([]int{1, 2, 3}, []int{4, 5}), 0)
	// Parallelize counts records read in rows.
	if got := ctx.Stats().Snapshot().RecordsRead; got != 5 {
		t.Fatalf("records read = %d, want 5 rows (not 2 batches)", got)
	}
	kept := FilterBatches(d, func(b *testBatch) *testBatch {
		var keep []int
		for _, v := range b.vals {
			if v > 1 {
				keep = append(keep, v)
			}
		}
		return &testBatch{vals: keep, live: len(keep)}
	})
	if err := kept.Err(); err != nil {
		t.Fatal(err)
	}
	obs.mu.Lock()
	defer obs.mu.Unlock()
	if obs.in != 5 || obs.out != 4 {
		t.Fatalf("task rows in/out = %d/%d, want 5/4", obs.in, obs.out)
	}
}

// mustContext builds a context from a configuration the test knows is
// valid.
func mustContext(tb testing.TB, cfg Config) *Context {
	tb.Helper()
	ctx, err := NewContext(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return ctx
}

func TestBatchSizeConfig(t *testing.T) {
	if got := mustContext(t, Config{BatchSize: 256}).BatchSize(); got != 256 {
		t.Fatalf("BatchSize = %d, want 256", got)
	}
	if _, err := NewContext(Config{BatchSize: -3}); err == nil {
		t.Fatal("negative BatchSize should be rejected")
	}
	if New(1).BatchSize() != 0 {
		t.Fatal("default BatchSize should be 0 (tuple path)")
	}
}
