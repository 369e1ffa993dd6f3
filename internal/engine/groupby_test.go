package engine_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"bigdansing/internal/engine"
	"bigdansing/internal/mapred"
	"bigdansing/internal/model"
)

// rec is a record of the grouping properties: a cell value to key on and a
// unique ID that witnesses placement and order.
type rec struct {
	Val model.Value
	ID  int
}

func recKey(r rec) model.ValueKey { return r.Val.MapKey() }

func init() {
	engine.RegisterCodec(engine.Codec[rec]{
		Append: func(buf []byte, r rec) []byte {
			return binary.AppendUvarint(model.AppendValue(buf, r.Val), uint64(r.ID))
		},
		Decode: func(buf []byte) (rec, int, error) {
			v, n, err := model.DecodeValue(buf)
			if err != nil {
				return rec{}, 0, err
			}
			id, m := binary.Uvarint(buf[n:])
			if m <= 0 {
				return rec{}, 0, errors.New("rec: bad id")
			}
			return rec{Val: v, ID: int(id)}, n + m, nil
		},
	})
	engine.RegisterCodec(engine.Codec[model.ValueKey]{Append: model.AppendValueKey, Decode: model.DecodeValueKey})
}

// keyPool holds the keys most likely to split or merge groups wrongly:
// -0 beside 0, NaN payloads, one number as int, float and string, the empty
// string beside null.
var keyPool = []model.Value{
	model.I(0), model.I(1), model.I(-1), model.F(0), model.F(math.Copysign(0, -1)),
	model.F(math.NaN()), model.F(math.Float64frombits(0x7ff8000000000001)), model.F(1),
	model.S("1"), model.S(""), model.S("a"), model.Null(),
}

// genRecs draws n records with IDs from base: mostly pool keys, some
// fresh ints so that destinations hold many groups.
func genRecs(r *rand.Rand, n, base int) []rec {
	out := make([]rec, n)
	for i := range out {
		v := keyPool[r.Intn(len(keyPool))]
		if r.Intn(3) == 0 {
			v = model.I(int64(r.Intn(40)))
		}
		out[i] = rec{Val: v, ID: base + i}
	}
	return out
}

// sources parallelizes recs into p partitions and empties every third one,
// so the wide operators see empty source partitions in the middle.
func sources(ctx *engine.Context, recs []rec, p int) (*engine.Dataset[rec], [][]rec) {
	d := engine.MapPartitions(engine.Parallelize(ctx, recs, p), func(part int, in []rec) []rec {
		if part%3 == 1 {
			return nil
		}
		return in
	})
	if err := d.Err(); err != nil {
		panic(err)
	}
	parts := make([][]rec, d.NumPartitions())
	for i := range parts {
		parts[i] = d.Partition(i)
	}
	return d, parts
}

// refGroup is one group of the reference: its key and member IDs in order.
type refGroup struct {
	key         model.ValueKey
	left, right []int // nil when the side has no records for the key
}

// reference is the parent's pair grouping, written out: destination
// hash(key) mod n, keys in first-seen order per destination (left side
// first), members in (source partition, arrival) order.
func reference(n int, left, right [][]rec) [][]refGroup {
	out := make([][]refGroup, n)
	at := make([]map[model.ValueKey]int, n)
	for p := range at {
		at[p] = map[model.ValueKey]int{}
	}
	add := func(parts [][]rec, side func(g *refGroup) *[]int) {
		for _, part := range parts {
			for _, r := range part {
				k := recKey(r)
				p := int(engine.HashKey(k) % uint64(n))
				gi, ok := at[p][k]
				if !ok {
					gi = len(out[p])
					at[p][k] = gi
					out[p] = append(out[p], refGroup{key: k})
				}
				s := side(&out[p][gi])
				*s = append(*s, r.ID)
			}
		}
	}
	add(left, func(g *refGroup) *[]int { return &g.left })
	add(right, func(g *refGroup) *[]int { return &g.right })
	return out
}

// mergeOrder reorders each destination's groups the way the budgeted
// (sort-spill-merge) grouping emits them: by key hash, then encoded key.
func mergeOrder(ref [][]refGroup) [][]refGroup {
	out := make([][]refGroup, len(ref))
	for p, gs := range ref {
		gs = append([]refGroup(nil), gs...)
		sort.SliceStable(gs, func(i, j int) bool {
			hi, hj := engine.HashKey(gs[i].key), engine.HashKey(gs[j].key)
			if hi != hj {
				return hi < hj
			}
			return bytes.Compare(model.AppendValueKey(nil, gs[i].key), model.AppendValueKey(nil, gs[j].key)) < 0
		})
		out[p] = gs
	}
	return out
}

func ids(rs []rec) []int {
	if rs == nil {
		return nil
	}
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = r.ID
	}
	return out
}

// render prints groups one per line; a nil side prints as "-".
func render(parts [][]refGroup) string {
	side := func(xs []int) string {
		if xs == nil {
			return "-"
		}
		return fmt.Sprint(xs)
	}
	var b strings.Builder
	for p, gs := range parts {
		fmt.Fprintf(&b, "partition %d:\n", p)
		for _, g := range gs {
			fmt.Fprintf(&b, "  %+v left=%s right=%s\n", g.key, side(g.left), side(g.right))
		}
	}
	return b.String()
}

// regime is one execution setting the grouping must agree on.
type regime struct {
	name string
	cfg  func(t *testing.T) engine.Config
	// merged marks the budgeted regime, whose groups come in merge order.
	merged bool
}

var regimes = []regime{
	{name: "memory", cfg: func(*testing.T) engine.Config { return engine.Config{Parallelism: 3} }},
	{name: "budget4k", merged: true, cfg: func(t *testing.T) engine.Config {
		return engine.Config{Parallelism: 3, MemoryBudgetBytes: 4 << 10, SpillDir: t.TempDir()}
	}},
	{name: "disk", cfg: func(t *testing.T) engine.Config {
		e, err := mapred.New(t.TempDir(), 2)
		if err != nil {
			t.Fatal(err)
		}
		return engine.Config{Parallelism: 3, Exchange: e}
	}},
}

// TestGroupingMatchesPairReference checks key-function grouping and
// co-grouping against the parent's pair grouping, written out as a
// reference: placement, group order and within-group order, at a
// parallelism of n = 1..5,
// with empty source partitions and NaN / -0 / cross-kind keys, with no
// budget, under a 4 KiB budget and on the disk exchange.
func TestGroupingMatchesPairReference(t *testing.T) {
	for _, rg := range regimes {
		t.Run(rg.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				for _, size := range []int{0, 1, 61, 400} {
					r := rand.New(rand.NewSource(seed*1000 + int64(size)))
					recsL, recsR := genRecs(r, size, 0), genRecs(r, size/2+1, size)
					for n := 1; n <= 5; n++ {
						cfg := rg.cfg(t)
						cfg.Parallelism = n
						ctx, err := engine.NewContext(cfg)
						if err != nil {
							t.Fatal(err)
						}
						dl, left := sources(ctx, recsL, 5)
						dr, right := sources(ctx, recsR, 4)
						name := fmt.Sprintf("seed=%d size=%d n=%d", seed, size, n)
						want := reference(n, left, nil)
						if rg.merged {
							want = mergeOrder(want)
						}
						got := groupsOf(t, engine.GroupBy(dl, recKey), func(g engine.Pair[model.ValueKey, []rec]) refGroup {
							return refGroup{key: g.Key, left: ids(g.Value)}
						})
						if render(got) != render(want) {
							t.Fatalf("%s: GroupBy\n%s\nwant\n%s", name, render(got), render(want))
						}
						got = groupsOf(t, engine.GroupByKey(engine.Map(dl, func(r rec) engine.Pair[model.ValueKey, rec] { return engine.KV(recKey(r), r) })), func(g engine.Pair[model.ValueKey, []rec]) refGroup {
							return refGroup{key: g.Key, left: ids(g.Value)}
						})
						if render(got) != render(want) {
							t.Fatalf("%s: GroupByKey\n%s\nwant\n%s", name, render(got), render(want))
						}
						cwant := reference(n, left, right)
						cgot := groupsOf(t, engine.CoGroupBy(dl, dr, recKey, recKey), func(g engine.Pair[model.ValueKey, engine.CoGrouped[rec, rec]]) refGroup {
							return refGroup{key: g.Key, left: ids(g.Value.Left), right: ids(g.Value.Right)}
						})
						if render(cgot) != render(cwant) {
							t.Fatalf("%s: CoGroupBy\n%s\nwant\n%s", name, render(cgot), render(cwant))
						}
					}
				}
			}
		})
	}
}

// groupsOf collects a grouped dataset partition by partition.
func groupsOf[G any](t *testing.T, d *engine.Dataset[G], conv func(G) refGroup) [][]refGroup {
	t.Helper()
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	out := make([][]refGroup, d.NumPartitions())
	for p := range out {
		for _, g := range d.Partition(p) {
			out[p] = append(out[p], conv(g))
		}
	}
	return out
}
