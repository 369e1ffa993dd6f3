package cleanse

import (
	"fmt"
	"slices"
	"testing"

	"bigdansing/internal/core"
	"bigdansing/internal/datagen"
	"bigdansing/internal/engine"
	"bigdansing/internal/model"
	"bigdansing/internal/repair"
	"bigdansing/internal/rules"
)

// recordsRead runs f and returns the records the engine read meanwhile.
func recordsRead(t testing.TB, ctx *engine.Context, f func() error) int64 {
	t.Helper()
	before := ctx.Stats().Snapshot().RecordsRead
	if err := f(); err != nil {
		t.Fatal(err)
	}
	return ctx.Stats().Snapshot().RecordsRead - before
}

// TestSessionRepairFreeFlushStaysIncremental: a first flush that repairs
// nothing must not turn later flushes into full passes. Each later
// ingest+flush of a clean session reads exactly the blocks its tuples land
// in: the block-local pass hands the engine one record per touched block.
func TestSessionRepairFreeFlushStaysIncremental(t *testing.T) {
	rel := datagen.TaxA(2030, 0, 3).Dirty // error rate 0: no violations
	ctx := engine.New(2)
	cleaner := mustCleaner(t, ctx, []*core.Rule{fdZipCity(t, rel)})
	s, err := cleaner.Open(rel.Schema)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Ingest(rel.Tuples[:2000]); err != nil {
		t.Fatal(err)
	}
	if rep, err := s.Flush(); err != nil || rep.UpdatesApplied != 0 {
		t.Fatalf("first flush: %+v, %v", rep, err)
	}
	for lo := 2000; lo < rel.Len(); lo += 10 {
		batch := rel.Tuples[lo : lo+10]
		zips := map[model.ValueKey]bool{}
		for _, tp := range batch {
			zips[tp.Cell(1).MapKey()] = true
		}
		touched := len(zips)
		got := recordsRead(t, ctx, func() error {
			if err := s.Ingest(batch); err != nil {
				return err
			}
			_, err := s.Flush()
			return err
		})
		if got != int64(touched) {
			t.Errorf("ingest+flush at %d tuples read %d records, want the %d of the touched blocks", lo+10, got, touched)
		}
	}
}

// TestSessionBatchCostFlat is the O(batch) guard: the records one batch
// reads through Ingest+Flush (detection on ingest, repair, re-detection of
// the repaired blocks) are the same at n tuples and after 10n more tuples
// have landed in other blocks.
func TestSessionBatchCostFlat(t *testing.T) {
	schema := datagen.TaxSchema()
	ctx := engine.New(2)
	cleaner := mustCleaner(t, ctx, []*core.Rule{fdZipCity(t, model.NewRelation("tax", schema))})
	s, err := cleaner.Open(schema)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mk := func(zip int64, city string) model.Tuple {
		return model.NewTuple(-1, model.S("p"), model.I(zip), model.S(city),
			model.S("ST"), model.F(1), model.F(1))
	}
	// fill ingests and flushes n clean tuples, ten per block, from zip0 up.
	fill := func(zip0 int64, n int) {
		var batch []model.Tuple
		for i := 0; i < n; i++ {
			zip := zip0 + int64(i/10)
			batch = append(batch, mk(zip, fmt.Sprintf("C%d", zip)))
		}
		if err := s.Ingest(batch); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// probe sends one fixed-shape batch into four fresh blocks of five
	// tuples, one typo each, and returns the records it read.
	probe := func(zip0 int64) int64 {
		var batch []model.Tuple
		for b := int64(0); b < 4; b++ {
			for i := 0; i < 5; i++ {
				city := fmt.Sprintf("C%d", zip0+b)
				if i == 0 {
					city = "Typo"
				}
				batch = append(batch, mk(zip0+b, city))
			}
		}
		var rep Report
		n := recordsRead(t, ctx, func() error {
			if err := s.Ingest(batch); err != nil {
				return err
			}
			var err error
			rep, err = s.Flush()
			return err
		})
		if rep.UpdatesApplied != 4 || rep.RemainingViolations != 0 {
			t.Fatalf("probe flush: %+v", rep)
		}
		return n
	}
	fill(10000, 200)
	small := probe(50000)
	fill(20000, 2000)
	large := probe(60000)
	if small == 0 || small != large {
		t.Errorf("one batch read %d records at 220 tuples and %d at 2240; want equal and non-zero", small, large)
	}
}

// TestSessionFixSetOrderDeterministic: two identical sessions assemble
// their fix sets in the same order after every flush.
func TestSessionFixSetOrderDeterministic(t *testing.T) {
	rel := datagen.TaxA(600, 0.1, 5).Dirty
	zipState, err := rules.ParseFD("phi6", "zipcode -> state")
	if err != nil {
		t.Fatal(err)
	}
	run := func() [][]string {
		state, err := zipState.Compile(rel.Schema)
		if err != nil {
			t.Fatal(err)
		}
		cleaner := mustCleaner(t, engine.New(4), []*core.Rule{fdZipCity(t, rel), state})
		s, err := cleaner.Open(rel.Schema)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var out [][]string
		for lo := 0; lo < rel.Len(); lo += 100 {
			if err := s.Ingest(rel.Tuples[lo : lo+100]); err != nil {
				t.Fatal(err)
			}
			// The detection the flush's first round starts from: it holds
			// the batch's unrepaired violations.
			res, err := s.detect()
			if err != nil {
				t.Fatal(err)
			}
			var sets []string
			for _, fs := range res.Result().FixSets {
				sets = append(sets, fmt.Sprint(fs))
			}
			out = append(out, sets)
			if _, err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if !slices.Equal(a[i], b[i]) {
			t.Fatalf("flush %d: fix-set order differs between identical sessions", i+1)
		}
	}
}

// BenchmarkSessionStream measures the streaming session's steady state,
// as the taxa_session_stream workload runs it: a session primed with 40 000
// TaxA rows (5 % errors, seed 1) under φ1 (zipcode -> city), then one
// 200-row Ingest+Flush per op, 256 batches per session. The rows are the
// workload's whatever b.N is, so every op re-detects blocks of the same
// size; after every 256 ops a fresh session is primed, untimed. rounds/op
// is the mean number of detect-repair rounds per flush.
func BenchmarkSessionStream(b *testing.B) {
	const primed, batch, batches = 40000, 200, 256
	rel := datagen.TaxA(primed+batches*batch, 0.05, 1).Dirty
	fd, err := rules.ParseFD("phi1", "zipcode -> city")
	if err != nil {
		b.Fatal(err)
	}
	rule, err := fd.Compile(rel.Schema)
	if err != nil {
		b.Fatal(err)
	}
	cleaner, err := NewCleaner(engine.New(2), []*core.Rule{rule}, WithParallelRepair(repair.Options{}))
	if err != nil {
		b.Fatal(err)
	}
	var s *Session
	prime := func() {
		if s != nil {
			s.Close()
		}
		if s, err = cleaner.Open(rel.Schema); err != nil {
			b.Fatal(err)
		}
		for lo := 0; lo < primed; lo += 10000 {
			if err := s.Ingest(rel.Tuples[lo:min(lo+10000, primed)]); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := s.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	defer func() { s.Close() }()
	b.ReportAllocs()
	b.ResetTimer()
	rounds := 0
	for i := 0; i < b.N; i++ {
		if i%batches == 0 {
			b.StopTimer()
			prime()
			b.StartTimer()
		}
		lo := primed + i%batches*batch
		if err := s.Ingest(rel.Tuples[lo : lo+batch]); err != nil {
			b.Fatal(err)
		}
		rep, err := s.Flush()
		if err != nil {
			b.Fatal(err)
		}
		rounds += rep.Iterations
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
}
