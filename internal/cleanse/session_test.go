package cleanse

import (
	"slices"
	"strings"
	"testing"

	"bigdansing/internal/core"
	"bigdansing/internal/datagen"
	"bigdansing/internal/engine"
	"bigdansing/internal/model"
	"bigdansing/internal/probrepair"
	"bigdansing/internal/repair"
	"bigdansing/internal/rules"
)

func dcSalaryRate(t *testing.T, schema *model.Schema) *core.Rule {
	t.Helper()
	dc, err := rules.ParseDC("phi2", "t1.salary > t2.salary & t1.rate < t2.rate")
	if err != nil {
		t.Fatal(err)
	}
	rule, err := dc.Compile(schema)
	if err != nil {
		t.Fatal(err)
	}
	return rule
}

func assertSameRelation(t *testing.T, got, want *model.Relation) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("relation size: got %d, want %d", got.Len(), want.Len())
	}
	for i := range want.Tuples {
		g, w := got.Tuples[i], want.Tuples[i]
		if g.ID != w.ID {
			t.Fatalf("tuple %d: id %d vs %d", i, g.ID, w.ID)
		}
		for c := range w.Cells {
			if !g.Cell(c).Equal(w.Cell(c)) {
				t.Errorf("tuple %d col %d: %v vs %v", w.ID, c, g.Cell(c), w.Cell(c))
			}
		}
	}
}

// TestSessionStreamingEquivalence is the acceptance test for the session
// API: the Figure 9 dataset (TaxA) pushed through a Session in k batches
// with one Flush must produce exactly the relation and violation counts of
// a one-shot Clean over the same tuples, for a mixed FD + DC rule set
// (the DC is not incrementalizable, so this also exercises the bounded
// re-detection fallback inside a streaming session).
func TestSessionStreamingEquivalence(t *testing.T) {
	rel := datagen.TaxA(240, 0.1, 7).Dirty
	mkRules := func() []*core.Rule {
		return []*core.Rule{fdZipCity(t, rel), dcSalaryRate(t, rel.Schema)}
	}

	oneShot, err := NewCleaner(engine.New(4), mkRules(),
		WithParallelRepair(repair.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := oneShot.Clean(rel)
	if err != nil {
		t.Fatal(err)
	}

	cleaner, err := NewCleaner(engine.New(4), mkRules(),
		WithParallelRepair(repair.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	s, err := cleaner.Open(rel.Schema)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const k = 4
	per := rel.Len() / k
	for b := 0; b < k; b++ {
		end := (b + 1) * per
		if b == k-1 {
			end = rel.Len()
		}
		if err := s.Ingest(rel.Tuples[b*per : end]); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.Flush()
	if err != nil {
		t.Fatal(err)
	}

	want := res.Report()
	if rep.InitialViolations != want.InitialViolations {
		t.Errorf("initial violations: session %d, clean %d", rep.InitialViolations, want.InitialViolations)
	}
	if rep.RemainingViolations != want.RemainingViolations {
		t.Errorf("remaining violations: session %d, clean %d", rep.RemainingViolations, want.RemainingViolations)
	}
	if rep.Iterations != want.Iterations {
		t.Errorf("iterations: session %d, clean %d", rep.Iterations, want.Iterations)
	}
	if rep.UpdatesApplied != want.UpdatesApplied {
		t.Errorf("updates: session %d, clean %d", rep.UpdatesApplied, want.UpdatesApplied)
	}
	if rep.Flush != 1 || rep.Tuples != rel.Len() {
		t.Errorf("flush=%d tuples=%d, want 1 and %d", rep.Flush, rep.Tuples, rel.Len())
	}
	assertSameRelation(t, s.Relation(), res.Clean)
}

// TestSessionMultiFlushConverges: a session flushed between batches must
// leave zero remaining FD violations after every flush, carry the
// frozen-cell state across flushes, and number the flush reports.
func TestSessionMultiFlushConverges(t *testing.T) {
	rel := dirtyTax(8, 8, 2)
	cleaner, err := NewCleaner(engine.New(4), []*core.Rule{fdZipCity(t, rel)},
		WithParallelRepair(repair.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	s, err := cleaner.Open(rel.Schema)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	half := rel.Len() / 2
	if err := s.Ingest(rel.Tuples[:half]); err != nil {
		t.Fatal(err)
	}
	rep1, err := s.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Flush != 1 {
		t.Errorf("first flush numbered %d", rep1.Flush)
	}
	if rep1.RemainingViolations != 0 {
		t.Errorf("flush 1 left %d violations", rep1.RemainingViolations)
	}

	if err := s.Ingest(rel.Tuples[half:]); err != nil {
		t.Fatal(err)
	}
	rep2, err := s.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Flush != 2 {
		t.Errorf("second flush numbered %d", rep2.Flush)
	}
	if rep2.RemainingViolations != 0 {
		t.Errorf("flush 2 left %d violations", rep2.RemainingViolations)
	}
	if rep2.Tuples != rel.Len() {
		t.Errorf("flush 2 saw %d tuples, want %d", rep2.Tuples, rel.Len())
	}

	st := s.Status()
	if st.Flushes != 2 || st.Ingested != int64(rel.Len()) || st.Tuples != rel.Len() {
		t.Errorf("status after two flushes: %+v", st)
	}

	// A third flush with nothing new ingested must be a no-op: cached
	// detection state is reused and nothing is repaired.
	rep3, err := s.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if rep3.InitialViolations != 0 || rep3.UpdatesApplied != 0 {
		t.Errorf("idle flush did work: %+v", rep3)
	}
}

// TestSessionFallbackFullDetection: a rule set with nothing
// incrementalizable streams too. Ingest defers the fallback rule (no
// dataflow stage runs), the first Flush round re-detects it in full and
// counts what a full pass counts, and a flush with nothing new ingested
// runs no stage at all.
func TestSessionFallbackFullDetection(t *testing.T) {
	rel := datagen.TaxB(120, 0.05, 3).Dirty
	ctx := engine.New(2)
	cleaner, err := NewCleaner(ctx, []*core.Rule{dcSalaryRate(t, rel.Schema)})
	if err != nil {
		t.Fatal(err)
	}
	s, err := cleaner.Open(rel.Schema)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	before := ctx.Stats().Snapshot().Stages
	if err := s.Ingest(rel.Tuples); err != nil {
		t.Fatal(err)
	}
	if after := ctx.Stats().Snapshot().Stages; after != before {
		t.Errorf("ingest ran %d stages for a fallback-only rule set", after-before)
	}
	rep, err := s.Flush()
	if err != nil {
		t.Fatal(err)
	}
	full, err := core.DetectRules(engine.New(2), []*core.Rule{dcSalaryRate(t, rel.Schema)}, rel)
	if err != nil {
		t.Fatal(err)
	}
	if rep.InitialViolations == 0 || rep.InitialViolations != len(full.Violations) {
		t.Errorf("first flush found %d violations, a full pass %d", rep.InitialViolations, len(full.Violations))
	}
	before = ctx.Stats().Snapshot().Stages
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if after := ctx.Stats().Snapshot().Stages; after != before {
		t.Errorf("idle flush ran %d stages", after-before)
	}
}

// TestOpenValidation: configuration errors surface at NewCleaner or Open,
// not at Flush.
func TestOpenValidation(t *testing.T) {
	rel := dirtyTax(2, 4, 1)
	cleaner, err := NewCleaner(engine.New(2), []*core.Rule{fdZipCity(t, rel)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cleaner.Open(nil); err == nil {
		t.Error("nil schema accepted")
	}
	var zero Cleaner
	if _, err := zero.Open(rel.Schema); err == nil || !strings.Contains(err.Error(), "nil engine context") {
		t.Errorf("zero Cleaner: %v", err)
	}

	if _, err := NewCleaner(engine.New(2), nil); err == nil || !strings.Contains(err.Error(), "no rules") {
		t.Errorf("empty rule set: %v", err)
	}
	if _, err := NewCleaner(nil, []*core.Rule{fdZipCity(t, rel)}); err == nil || !strings.Contains(err.Error(), "nil engine context") {
		t.Errorf("nil context: %v", err)
	}
	if _, err := NewCleaner(engine.New(2), []*core.Rule{nil}); err == nil {
		t.Error("nil rule accepted")
	}
	if _, err := NewCleaner(engine.New(2), []*core.Rule{fdZipCity(t, rel)}, WithMaxIterations(-3)); err == nil {
		t.Error("NewCleaner accepted negative WithMaxIterations")
	}
	if _, err := NewCleaner(engine.New(2), []*core.Rule{fdZipCity(t, rel)}, WithFreezeAfter(-2)); err == nil {
		t.Error("NewCleaner accepted negative WithFreezeAfter")
	}
}

// TestSessionIngestErrors: arity and duplicate-ID validation reject the
// whole batch atomically, and a closed session refuses everything.
func TestSessionIngestErrors(t *testing.T) {
	rel := dirtyTax(2, 4, 1)
	cleaner, err := NewCleaner(engine.New(2), []*core.Rule{fdZipCity(t, rel)})
	if err != nil {
		t.Fatal(err)
	}
	s, err := cleaner.Open(rel.Schema)
	if err != nil {
		t.Fatal(err)
	}

	if err := s.Ingest(rel.Tuples[:4]); err != nil {
		t.Fatal(err)
	}
	// Wrong arity fails, and the valid leading tuple must not leak in.
	bad := []model.Tuple{rel.Tuples[4], model.NewTuple(99, model.S("short"))}
	if err := s.Ingest(bad); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if got := s.Status().Tuples; got != 4 {
		t.Fatalf("failed batch leaked tuples: %d", got)
	}
	// Duplicate against the relation and within the batch.
	if err := s.Ingest(rel.Tuples[3:4]); err == nil {
		t.Error("duplicate id vs relation accepted")
	}
	if err := s.Ingest([]model.Tuple{rel.Tuples[5], rel.Tuples[5]}); err == nil {
		t.Error("duplicate id within batch accepted")
	}

	// Negative IDs get fresh ones past the current maximum.
	fresh := rel.Tuples[6].Clone()
	fresh.ID = -1
	if err := s.Ingest([]model.Tuple{fresh}); err != nil {
		t.Fatal(err)
	}
	r := s.Relation()
	if last := r.Tuples[r.Len()-1].ID; last != 4 {
		t.Errorf("auto-assigned id = %d, want 4 (max ingested was 3)", last)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("Close is not idempotent")
	}
	if err := s.Ingest(rel.Tuples[6:7]); err == nil {
		t.Error("ingest after close accepted")
	}
	if _, err := s.Flush(); err == nil {
		t.Error("flush after close accepted")
	}
	if s.Relation() == nil || !s.Status().Closed {
		t.Error("Relation/Status must survive Close")
	}
}

// TestSessionIngestIDs: auto-assigned IDs never collide with an explicit ID
// of the same batch, whichever comes first, and an explicit ID already in
// the session still fails the whole batch.
func TestSessionIngestIDs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		batches [][]int64 // tuple IDs per Ingest; -1 asks for one
		wantErr bool      // the last batch fails
		want    []int64   // the session's IDs afterwards, in order
	}{
		{"auto then explicit", [][]int64{{-1, 0}}, false, []int64{1, 0}},
		{"explicit then auto", [][]int64{{0, -1}}, false, []int64{0, 1}},
		{"auto around a larger explicit", [][]int64{{-1, 7, -1}}, false, []int64{8, 7, 9}},
		{"explicit already in the session", [][]int64{{-1, 3}, {5, 3}}, true, []int64{4, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rel := dirtyTax(1, 1, 0)
			s, err := mustCleaner(t, engine.New(2), []*core.Rule{fdZipCity(t, rel)}).Open(rel.Schema)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for i, ids := range tc.batches {
				batch := make([]model.Tuple, len(ids))
				for j, id := range ids {
					batch[j] = rel.Tuples[0].Clone()
					batch[j].ID = id
				}
				err := s.Ingest(batch)
				if wantErr := tc.wantErr && i == len(tc.batches)-1; (err != nil) != wantErr {
					t.Fatalf("batch %d: error %v, want an error: %v", i, err, wantErr)
				}
			}
			var got []int64
			for p, tp := range s.Relation().Tuples {
				got = append(got, tp.ID)
				if s.idx[tp.ID] != p {
					t.Errorf("idx[%d] = %d, want %d", tp.ID, s.idx[tp.ID], p)
				}
			}
			if !slices.Equal(got, tc.want) || len(s.idx) != len(tc.want) {
				t.Fatalf("ids %v (%d indexed), want %v", got, len(s.idx), tc.want)
			}
		})
	}
}

// TestSessionRepairMemorySticky: a value the session repaired toward in an
// earlier flush keeps winning ties in later flushes, even when fresh
// ingests would otherwise flip the majority (the class-memory extension).
func TestSessionRepairMemorySticky(t *testing.T) {
	schema := model.MustParseSchema("name,zipcode:int,city,state,salary:float,rate:float")
	mk := func(id int64, city string) model.Tuple {
		return model.NewTuple(id, model.S("p"), model.I(11111), model.S(city),
			model.S("ST"), model.F(float64(id)), model.F(1))
	}
	cleaner, err := NewCleaner(engine.New(2),
		[]*core.Rule{fdZipCity(t, model.NewRelation("tax", schema))})
	if err != nil {
		t.Fatal(err)
	}
	s, err := cleaner.Open(schema)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Flush 1: Beta outvotes Alpha 2-1; every city cell is driven to Beta.
	if err := s.Ingest([]model.Tuple{mk(1, "Beta"), mk(2, "Beta"), mk(3, "Alpha")}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	// Flush 2: one more Alpha arrives. Current values now tie 3-3 as the
	// memory votes are what keep the class on Beta; without stickiness the
	// lexicographic tie-break would flip everything to Alpha.
	if err := s.Ingest([]model.Tuple{mk(4, "Alpha")}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, tp := range s.Relation().Tuples {
		if got := tp.Cell(2).String(); got != "Beta" {
			t.Errorf("tuple %d: city %q, want sticky Beta", tp.ID, got)
		}
	}
}

// TestSessionProbAlgorithm runs streaming sessions with the probabilistic
// repair backend: the session must clone the algorithm (per-session learned
// state, the shared instance stays untouched), learn on the first flush,
// repair the violations, and reproduce the same relation session over
// session for a fixed seed.
func TestSessionProbAlgorithm(t *testing.T) {
	rel := dirtyTax(8, 8, 2)
	shared := &probrepair.Prob{Samples: probrepair.DefaultSamples, Seed: 7}
	cleaner, err := NewCleaner(engine.New(4), []*core.Rule{fdZipCity(t, rel)},
		WithAlgorithm(shared),
		WithParallelRepair(repair.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	runOnce := func() *model.Relation {
		t.Helper()
		s, err := cleaner.Open(rel.Schema)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.Ingest(rel.Tuples); err != nil {
			t.Fatal(err)
		}
		rep, err := s.Flush()
		if err != nil {
			t.Fatal(err)
		}
		if rep.InitialViolations == 0 || rep.RemainingViolations != 0 {
			t.Fatalf("prob flush: %+v", rep)
		}
		return s.Relation()
	}
	a := runOnce()
	b := runOnce()
	assertSameRelation(t, a, b)
	// The session worked on a clone: the instance handed to the cleaner
	// must not have accumulated learned state.
	if cl := shared.CloneAlgorithm().(*probrepair.Prob); cl.Seed != 7 {
		t.Errorf("shared prob instance lost its configuration: %+v", cl)
	}
}
