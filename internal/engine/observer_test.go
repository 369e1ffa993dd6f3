package engine

import (
	"strings"
	"sync"
	"testing"
)

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

// recObserver is a minimal recording Observer for tests: it counts span
// begins/ends and keeps the reported attributes.
type recObserver struct {
	mu     sync.Mutex
	begun  int
	ended  int
	spans  []*recSpan
	counts map[Metric]int64
}

type recSpan struct {
	obs    *recObserver
	name   string
	kind   SpanKind
	parent *recSpan
	attrs  map[Attr]int64
	ended  bool
}

func newRecObserver() *recObserver {
	return &recObserver{counts: map[Metric]int64{}}
}

func (o *recObserver) BeginSpan(parent Span, name string, kind SpanKind) Span {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.begun++
	p, _ := parent.(*recSpan)
	sp := &recSpan{obs: o, name: name, kind: kind, parent: p, attrs: map[Attr]int64{}}
	o.spans = append(o.spans, sp)
	return sp
}

func (o *recObserver) Count(m Metric, v int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.counts[m] += v
}

func (s *recSpan) Attr(k Attr, v int64) {
	s.obs.mu.Lock()
	defer s.obs.mu.Unlock()
	s.attrs[k] = v
}

func (s *recSpan) End() {
	s.obs.mu.Lock()
	defer s.obs.mu.Unlock()
	if !s.ended {
		s.ended = true
		s.obs.ended++
	}
}

func (o *recObserver) leaked(t *testing.T) {
	t.Helper()
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.begun != o.ended {
		t.Errorf("span leak: %d begun, %d ended", o.begun, o.ended)
		for _, sp := range o.spans {
			if !sp.ended {
				t.Errorf("  open span %q (%v)", sp.name, sp.kind)
			}
		}
	}
}

// TestObserverSeesStagesAndTasks checks the event stream of a simple
// two-stage job: stage spans on the driver, one task span per partition
// parented to its stage, and record counts that reconcile with Stats.
func TestObserverSeesStagesAndTasks(t *testing.T) {
	rec := newRecObserver()
	ctx := mustContext(t, Config{Parallelism: 4, Observer: rec})
	data := make([]int, 100)
	for i := range data {
		data[i] = i % 10
	}
	d := Map(Parallelize(ctx, data, 4), func(v int) int { return v })
	g := GroupByKey(Map(d, func(v int) Pair[int, int] { return KV(v, v) }))
	if _, err := g.Collect(); err != nil {
		t.Fatal(err)
	}
	rec.leaked(t)

	rec.mu.Lock()
	defer rec.mu.Unlock()
	var stages, tasks int
	var taskIn int64
	var firstStage *recSpan
	for _, sp := range rec.spans {
		switch sp.kind {
		case SpanStage:
			stages++
			if firstStage == nil {
				firstStage = sp
			}
		case SpanTask:
			tasks++
			if sp.parent == nil || sp.parent.kind != SpanStage {
				t.Errorf("task span %q not parented to a stage", sp.name)
			}
			if sp.parent == firstStage {
				taskIn += sp.attrs[AttrRecordsIn]
			}
		}
	}
	if stages == 0 || tasks == 0 {
		t.Fatalf("stages=%d tasks=%d, want both > 0", stages, tasks)
	}
	snap := ctx.Stats().Snapshot()
	if snap.Tasks != int64(tasks) {
		t.Errorf("observer saw %d tasks, Stats counted %d", tasks, snap.Tasks)
	}
	if snap.Stages != int64(stages) {
		t.Errorf("observer saw %d stages, Stats counted %d", stages, snap.Stages)
	}
	if taskIn != 100 {
		t.Errorf("Map stage task records_in sum = %d, want 100", taskIn)
	}
	if rec.counts[MetricRecordsRead] != 100 {
		t.Errorf("MetricRecordsRead = %d, want 100", rec.counts[MetricRecordsRead])
	}
}

// TestObserverSpanHygieneOnPanic mirrors error_test.go: a panicking
// operator must fail the stage with an attributed error AND leave no open
// spans behind.
func TestObserverSpanHygieneOnPanic(t *testing.T) {
	rec := newRecObserver()
	ctx := mustContext(t, Config{Parallelism: 4, Observer: rec})
	d := Map(Parallelize(ctx, []int{1, 2, 3, 4, 5, 6, 7, 8}, 4), func(v int) int {
		if v == 5 {
			panic("boom")
		}
		return v
	})
	_, err := d.Collect()
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want panic error", err)
	}
	rec.leaked(t)
}

// TestObserverSpanHygieneOnShufflePanic exercises the wide-op paths.
func TestObserverSpanHygieneOnShufflePanic(t *testing.T) {
	rec := newRecObserver()
	ctx := mustContext(t, Config{Parallelism: 4, Observer: rec})
	d := Map(Parallelize(ctx, []int{1, 2, 3, 4, 5, 6}, 3), func(v int) Pair[int, int] {
		if v == 4 {
			panic("bad key")
		}
		return KV(v%2, v)
	})
	if _, err := GroupByKey(d).Collect(); err == nil {
		t.Fatal("want error from panicking key extractor")
	}
	rec.leaked(t)
}

// TestStatsIsDefaultObserver: without a configured Observer, the context
// reports to its own Stats and Instrumented stays false.
func TestStatsIsDefaultObserver(t *testing.T) {
	ctx := New(4)
	if ctx.Instrumented() {
		t.Error("Instrumented() = true without a user Observer")
	}
	if ctx.Observer() != ctx.Stats() {
		t.Error("default Observer should be the context's Stats")
	}
	d := Parallelize(ctx, []int{1, 2, 3}, 3)
	if _, err := d.Collect(); err != nil {
		t.Fatal(err)
	}
	if got := ctx.Stats().Snapshot().RecordsRead; got != 3 {
		t.Errorf("RecordsRead = %d, want 3", got)
	}
}

// TestTeeKeepsStatsTruthful: with a user Observer installed, Stats must
// keep counting exactly as it would alone.
func TestTeeKeepsStatsTruthful(t *testing.T) {
	plain := New(4)
	rec := newRecObserver()
	traced := mustContext(t, Config{Parallelism: 4, Observer: rec})
	if !traced.Instrumented() {
		t.Error("Instrumented() = false with a user Observer")
	}
	data := make([]int, 50)
	for i := range data {
		data[i] = i
	}
	for _, ctx := range []*Context{plain, traced} {
		g := GroupByKey(Map(Parallelize(ctx, data, 4), func(v int) Pair[int, int] { return KV(v%5, v) }))
		if _, err := g.Collect(); err != nil {
			t.Fatal(err)
		}
	}
	a, b := plain.Stats().Snapshot(), traced.Stats().Snapshot()
	if a.Stages != b.Stages || a.Tasks != b.Tasks ||
		a.RecordsRead != b.RecordsRead || a.RecordsShuffled != b.RecordsShuffled {
		t.Errorf("teed Stats diverged:\nplain:  %+v\ntraced: %+v", a, b)
	}
}

// TestSnapshotStageOrderDeterministic: the per-stage report must come out
// ordered by first-execution stage id, not wall time or map order.
func TestSnapshotStageOrderDeterministic(t *testing.T) {
	ctx := New(4)
	d := Parallelize(ctx, []int{3, 1, 2}, 3)
	ranged, err := RangePartitionBy(d, func(a, b int) bool { return a < b }, 3).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(ranged) != 3 {
		t.Fatalf("ranged = %v", ranged)
	}
	snap := ctx.Stats().Snapshot()
	for i, st := range snap.PerStage {
		if st.ID != i {
			t.Errorf("PerStage[%d].ID = %d, want %d (ordered by stage id)", i, st.ID, i)
		}
	}
	// The text report lists stages in id order too.
	text := snap.String()
	lastIdx := -1
	for i := range snap.PerStage {
		idx := strings.Index(text, snap.PerStage[i].Name)
		if idx < 0 {
			t.Fatalf("stage %q missing from report:\n%s", snap.PerStage[i].Name, text)
		}
		if idx < lastIdx {
			t.Errorf("stage %q printed out of id order:\n%s", snap.PerStage[i].Name, text)
		}
		lastIdx = idx
	}
}

// noopObserver is the cheapest possible user observer, for overhead
// benchmarks: real method calls, no recording.
type noopObserver struct{}

func (noopObserver) BeginSpan(Span, string, SpanKind) Span { return noopSpan{} }
func (noopObserver) Count(Metric, int64)                   {}

type noopSpan struct{}

func (noopSpan) Attr(Attr, int64) {}
func (noopSpan) End()             {}

func benchGroupByKeyWith(b *testing.B, cfg Config) {
	data := make([]Pair[int, int], 100_000)
	for i := range data {
		data[i] = KV(i%1000, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := mustContext(b, cfg)
		g := GroupByKey(Parallelize(ctx, data, 8))
		if _, err := g.Collect(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGroupByKeyObserverOff is the overhead guard baseline: the
// default Stats-only path.
func BenchmarkGroupByKeyObserverOff(b *testing.B) {
	benchGroupByKeyWith(b, Config{Parallelism: 8})
}

// BenchmarkGroupByKeyObserverOn measures the teed no-op observer; the gap
// to ObserverOff is the price of installing an Observer (budget: <=2%).
func BenchmarkGroupByKeyObserverOn(b *testing.B) {
	benchGroupByKeyWith(b, Config{Parallelism: 8, Observer: noopObserver{}})
}
