package chaostest

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"bigdansing/internal/engine"
	"bigdansing/internal/netexec"
)

func TestMain(m *testing.M) {
	netexec.MaybeWorker()
	os.Exit(m.Run())
}

// The RangePartitionBy step ranges the counted pairs, which must cross the exchange
// like the shuffled words do.
func init() {
	sc := engine.StringCodec()
	engine.RegisterCodec(engine.Codec[engine.Pair[string, int]]{
		Append: func(buf []byte, p engine.Pair[string, int]) []byte {
			return binary.AppendVarint(sc.Append(buf, p.Key), int64(p.Value))
		},
		Decode: func(buf []byte) (engine.Pair[string, int], int, error) {
			k, n, err := sc.Decode(buf)
			if err != nil {
				return engine.Pair[string, int]{}, 0, err
			}
			v, m := binary.Varint(buf[n:])
			if m <= 0 {
				return engine.Pair[string, int]{}, 0, fmt.Errorf("chaostest: decode count")
			}
			return engine.KV(k, int(v)), n + m, nil
		},
	})
}

// pipeline runs a two-exchange plan — a word-count ReduceByKey shuffle
// followed by a RangePartitionBy scatter — over the given context, on data
// derived from the seed, and returns the output partition by partition.
func pipeline(ctx *engine.Context, seed int64) ([][]engine.Pair[string, int], error) {
	r := rand.New(rand.NewSource(seed))
	words := make([]engine.Pair[string, int], 1500)
	for i := range words {
		words[i] = engine.KV(fmt.Sprintf("w%03d", r.Intn(120)), 1)
	}
	counts := engine.ReduceByKey(engine.Parallelize(ctx, words, 8),
		func(a, b int) int { return a + b })
	ranged := engine.RangePartitionBy(counts, func(a, b engine.Pair[string, int]) bool {
		return a.Key < b.Key
	}, 4)
	if err := ranged.Err(); err != nil {
		return nil, err
	}
	parts := make([][]engine.Pair[string, int], ranged.NumPartitions())
	for i := range parts {
		parts[i] = ranged.Partition(i)
	}
	return parts, nil
}

// TestChaosSchedules runs 50 seeded fault schedules. Every schedule must
// (a) produce output identical to the in-process backend — faults may cost
// time, never correctness — and (b) actually fire: the matching robustness
// counter (retries for connection drops, recoveries for worker deaths,
// straggler re-dispatches for delays) must be nonzero, proving the fault
// paths were exercised rather than skipped.
func TestChaosSchedules(t *testing.T) {
	const schedules = 50
	const workers = 2

	for seed := int64(1); seed <= schedules; seed++ {
		sch := NewSchedule(seed, workers)
		t.Run(sch.String(), func(t *testing.T) {
			t.Parallel()

			local := engine.New(4)
			want, err := pipeline(local, seed)
			if err != nil {
				t.Fatal(err)
			}

			cfg := netexec.Config{
				Workers:          workers,
				RPCTimeout:       5 * time.Second,
				RetryBackoff:     5 * time.Millisecond,
				StragglerFactor:  2,
				StragglerMinDone: 1,
				StragglerPoll:    5 * time.Millisecond,
			}
			sch.Apply(&cfg)
			coord, err := netexec.New(cfg, nil)
			if err != nil {
				t.Fatalf("coordinator under %v: %v", sch, err)
			}
			ctx, err := engine.NewContext(engine.Config{Parallelism: 4, Exchange: coord})
			if err != nil {
				t.Fatal(err)
			}
			defer ctx.Close()

			got, err := pipeline(ctx, seed)
			if err != nil {
				t.Fatalf("pipeline under %v: %v", sch, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("output under %v differs from the in-process backend", sch)
			}
			if c := coord.Counters(); !sch.Fired(c) {
				t.Errorf("fault %v did not fire: counters %+v", sch, c)
			}
		})
	}
}
