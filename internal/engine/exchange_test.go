package engine

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

// tamperExchange gathers in process, each destination's runs concatenated
// in source order, and then lets damage change what the first destination
// with any records receives.
type tamperExchange struct{ damage func(run []byte) []byte }

func (x tamperExchange) Shuffle(_ string, runs [][][]byte, n int) ([][]byte, error) {
	out := make([][]byte, n)
	for _, bySrc := range runs {
		for dst, run := range bySrc {
			out[dst] = append(out[dst], run...)
		}
	}
	for dst := range out {
		if len(out[dst]) > 0 {
			out[dst] = x.damage(out[dst])
			break
		}
	}
	return out, nil
}

func (tamperExchange) Cartesian(string, [][]byte, []byte) ([][]byte, error) {
	return nil, errors.New("no cartesian here")
}

func (tamperExchange) Close() error { return nil }

// TestGatheredRunMustMatchWhatWasRouted damages the run an exchange hands
// back for one destination. A run of another length, one holding fewer
// records in the same bytes, and one whose records do not decode must each
// fail the grouping, the co-grouping and the range partitioning with an
// error naming the operation, never a panic or a short partition.
func TestGatheredRunMustMatchWhatWasRouted(t *testing.T) {
	damage := map[string]func([]byte) []byte{
		"a byte short":    func(b []byte) []byte { return b[:len(b)-1] },
		"a byte too many": func(b []byte) []byte { return append(b, 0) },
		"one record in the same bytes": func(b []byte) []byte {
			size := len(b) - 1
			for binary.PutUvarint(make([]byte, binary.MaxVarintLen64), uint64(size))+size > len(b) {
				size--
			}
			return AppendRecord(nil, b[len(b)-size:])
		},
		"an undecodable record": func(b []byte) []byte {
			for i := 1; i <= int(b[0]); i++ {
				b[i] = 0x80
			}
			return b
		},
	}
	pairs := make([]Pair[int, int], 400)
	for i := range pairs {
		pairs[i] = KV(i%7, i)
	}
	for name, f := range damage {
		t.Run(name, func(t *testing.T) {
			ctx, err := NewContext(Config{Parallelism: 3, Exchange: tamperExchange{f}})
			if err != nil {
				t.Fatal(err)
			}
			d := Parallelize(ctx, pairs, 2)
			keys := Map(d, pairKey[int, int])
			for _, c := range []struct {
				what, op string
				err      error
			}{
				{"GroupByKey", "shuffle", GroupByKey(d).Err()},
				{"CoGroupBy", "shuffle", CoGroupBy(keys, keys, identity[int], identity[int]).Err()},
				{"RangePartitionBy", "rangePartition", RangePartitionBy(keys, func(a, b int) bool { return a < b }, 3).Err()},
			} {
				if c.err == nil || !strings.Contains(c.err.Error(), c.op) || strings.Contains(c.err.Error(), "panicked") {
					t.Errorf("%s: err = %v, want an error naming %s", c.what, c.err, c.op)
				}
			}
		})
	}
}
