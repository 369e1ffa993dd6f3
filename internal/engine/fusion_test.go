package engine

import (
	"math/rand"
	"strings"
	"testing"
)

// narrowOp is one randomly chosen narrow transformation, applied both to
// the engine dataset and to a plain-slice reference model.
type narrowOp struct {
	name  string
	ds    func(d *Dataset[int]) *Dataset[int]
	model func(in []int) []int
}

var fusionOps = []narrowOp{
	{
		name: "map",
		ds:   func(d *Dataset[int]) *Dataset[int] { return Map(d, func(v int) int { return v*3 + 1 }) },
		model: func(in []int) []int {
			out := make([]int, len(in))
			for i, v := range in {
				out[i] = v*3 + 1
			}
			return out
		},
	},
	{
		name: "filter",
		ds:   func(d *Dataset[int]) *Dataset[int] { return Filter(d, func(v int) bool { return v%3 != 0 }) },
		model: func(in []int) []int {
			var out []int
			for _, v := range in {
				if v%3 != 0 {
					out = append(out, v)
				}
			}
			return out
		},
	},
	{
		name: "flatMap",
		ds: func(d *Dataset[int]) *Dataset[int] {
			return FlatMap(d, func(v int) []int {
				if v%5 == 0 {
					return nil
				}
				return []int{v, -v}
			})
		},
		model: func(in []int) []int {
			var out []int
			for _, v := range in {
				if v%5 == 0 {
					continue
				}
				out = append(out, v, -v)
			}
			return out
		},
	},
	{
		name: "mapPartitions",
		ds: func(d *Dataset[int]) *Dataset[int] {
			return MapPartitions(d, func(_ int, in []int) []int {
				out := make([]int, len(in))
				for i, v := range in {
					out[i] = v + 7
				}
				return out
			})
		},
		model: func(in []int) []int {
			out := make([]int, len(in))
			for i, v := range in {
				out[i] = v + 7
			}
			return out
		},
	},
}

// TestFusionMatchesEagerModel is the fusion-correctness property test: any
// random chain of narrow operators over random input must Collect exactly
// what sequential (eager) application of the same operators yields, and the
// whole chain must execute as one stage.
func TestFusionMatchesEagerModel(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ctx := New(4)
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(300)
		data := make([]int, n)
		for i := range data {
			data[i] = r.Intn(1000) - 500
		}
		nParts := r.Intn(8) // 0 means context parallelism
		d := Parallelize(ctx, data, nParts)
		want := append([]int(nil), data...)
		k := 1 + r.Intn(6)
		var names []string
		for i := 0; i < k; i++ {
			op := fusionOps[r.Intn(len(fusionOps))]
			names = append(names, op.name)
			d = op.ds(d)
			want = op.model(want)
		}
		// MapPartitions sees per-partition slices, so applying its model to
		// the whole input is only equivalent because every fusion op here is
		// element-wise or order-preserving per partition — which also makes
		// the final concatenation order deterministic.
		before := ctx.Stats().Snapshot().Stages
		got, err := d.Collect()
		if err != nil {
			t.Fatalf("trial %d chain %v: %v", trial, names, err)
		}
		if stages := ctx.Stats().Snapshot().Stages - before; stages != 1 {
			t.Fatalf("trial %d chain %v: fused chain ran as %d stages, want 1", trial, names, stages)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d chain %v: len %d, want %d", trial, names, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d chain %v: element %d = %d, want %d", trial, names, i, got[i], want[i])
			}
		}
	}
}

// TestFusedChainIsOneStageWithSourceTasks asserts the acceptance criterion
// directly: a chain of k narrow transformations over an m-partition source
// executes as exactly 1 stage with m tasks.
func TestFusedChainIsOneStageWithSourceTasks(t *testing.T) {
	ctx := New(4)
	ctx.Stats().Reset()
	d := Parallelize(ctx, ints(1000), 5)
	chain := Map(d, func(v int) int { return v + 1 })
	chain = Filter(chain, func(v int) bool { return v%2 == 0 })
	chain2 := FlatMap(chain, func(v int) []int { return []int{v, v} })
	chain2 = Map(chain2, func(v int) int { return v * 2 })
	if got := ctx.Stats().Snapshot().Stages; got != 0 {
		t.Fatalf("no action ran, but %d stages executed", got)
	}
	if _, err := chain2.Collect(); err != nil {
		t.Fatal(err)
	}
	snap := ctx.Stats().Snapshot()
	if snap.Stages != 1 {
		t.Fatalf("stages = %d, want 1", snap.Stages)
	}
	if snap.Tasks != 5 {
		t.Fatalf("tasks = %d, want 5 (one per source partition)", snap.Tasks)
	}
	if len(snap.PerStage) != 1 || snap.PerStage[0].Name != "Map·Filter·FlatMap·Map" {
		t.Fatalf("per-stage breakdown = %+v", snap.PerStage)
	}
	if snap.PerStage[0].Tasks != 5 || snap.PerStage[0].Runs != 1 {
		t.Fatalf("per-stage record = %+v", snap.PerStage[0])
	}
}

// TestFusedPanicNamesOperator asserts that a panic inside a fused stage is
// attributed to the operator that raised it, by kind and position in the
// chain.
func TestFusedPanicNamesOperator(t *testing.T) {
	ctx := New(2)
	d := Parallelize(ctx, ints(100), 4)
	chain := Map(d, func(v int) int { return v + 1 })
	chain = Filter(chain, func(v int) bool {
		if v == 42 {
			panic("filter boom")
		}
		return true
	})
	chain = Map(chain, func(v int) int { return v * 2 })
	_, err := chain.Collect()
	if err == nil {
		t.Fatal("panic should surface as error")
	}
	if !strings.Contains(err.Error(), "Filter#2") {
		t.Errorf("error should name the originating operator Filter#2: %v", err)
	}
	if !strings.Contains(err.Error(), "filter boom") {
		t.Errorf("error should carry the panic value: %v", err)
	}

	// Same chain, panic in the trailing Map instead.
	d2 := Parallelize(ctx, ints(10), 2)
	chain2 := Map(Filter(d2, func(int) bool { return true }), func(v int) int {
		if v == 3 {
			panic("map boom")
		}
		return v
	})
	_, err = chain2.Collect()
	if err == nil || !strings.Contains(err.Error(), "Map#2") {
		t.Errorf("error should name Map#2: %v", err)
	}
}

// TestAccessorsForceExecution covers the lazy-internals fix: Partition and
// NumPartitions on an unexecuted dataset force the plan instead of leaking
// empty pre-execution state.
func TestAccessorsForceExecution(t *testing.T) {
	ctx := New(4)
	d := Parallelize(ctx, ints(20), 4)
	lazy := Map(d, func(v int) int { return v * 10 })
	if n := lazy.NumPartitions(); n != 4 {
		t.Fatalf("NumPartitions = %d, want 4", n)
	}
	total := 0
	for p := 0; p < lazy.NumPartitions(); p++ {
		for _, v := range lazy.Partition(p) {
			total += v
		}
	}
	if total != 1900 {
		t.Fatalf("partition contents not computed: sum = %d, want 1900", total)
	}
}

// TestErrIsAnAction asserts Err forces pending work and caches the result.
func TestErrIsAnAction(t *testing.T) {
	ctx := New(2)
	ctx.Stats().Reset()
	d := Map(Parallelize(ctx, ints(10), 2), func(v int) int { return v + 1 })
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if ctx.Stats().Snapshot().Stages != 1 {
		t.Fatalf("Err should have executed the chain: stages = %d", ctx.Stats().Snapshot().Stages)
	}
	// A second action reuses the cache: no new stage.
	if _, err := d.Collect(); err != nil {
		t.Fatal(err)
	}
	if ctx.Stats().Snapshot().Stages != 1 {
		t.Fatalf("Collect after Err should reuse the cache: stages = %d", ctx.Stats().Snapshot().Stages)
	}
}

// TestSnapshotAggregatesByName checks the per-stage breakdown groups
// repeated stages under one name.
func TestSnapshotAggregatesByName(t *testing.T) {
	ctx := New(4)
	ctx.Stats().Reset()
	for i := 0; i < 3; i++ {
		kv := Map(Parallelize(ctx, ints(50), 4), func(v int) Pair[int, int] { return KV(v%5, v) })
		if _, err := GroupByKey(kv).Count(); err != nil {
			t.Fatal(err)
		}
	}
	snap := ctx.Stats().Snapshot()
	byName := map[string]StageStat{}
	for _, st := range snap.PerStage {
		byName[st.Name] = st
	}
	sc, ok := byName["shuffle:scatter"]
	if !ok || sc.Runs != 3 {
		t.Fatalf("shuffle:scatter should aggregate 3 runs: %+v", snap.PerStage)
	}
	// The index scatter moves no record; the grouping stage reads them
	// where they lie and counts them as shuffled.
	if g := byName["groupByKey"]; g.Runs != 3 || g.RecordsShuffled != 150 {
		t.Fatalf("groupByKey = %+v, want 3 runs shuffling 150", g)
	}
	if _, ok := byName["shuffle:gather"]; ok {
		t.Fatalf("no gather stage expected: %+v", snap.PerStage)
	}
	if snap.RecordsShuffled != 150 {
		t.Fatalf("total shuffled = %d, want 150", snap.RecordsShuffled)
	}
}
