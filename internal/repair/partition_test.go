package repair

import (
	"testing"

	"bigdansing/internal/model"
)

// cellKey names cell (t, 0), a node of the test hypergraphs.
func cellKey(t int64) model.CellKey { return model.CellKey{TupleID: t} }

// cut counts the cells appearing in more than one part — the quantity the
// partitioner heuristically minimizes and the number of cells at risk of
// contradictory repairs (Example 2).
func cut(edges [][]model.CellKey, parts [][]int) int {
	partOf := map[model.CellKey]int{}
	crossing := map[model.CellKey]bool{}
	for pi, p := range parts {
		for _, e := range p {
			for _, c := range edges[e] {
				if prev, ok := partOf[c]; !ok {
					partOf[c] = pi
				} else if prev != pi {
					crossing[c] = true
				}
			}
		}
	}
	return len(crossing)
}

func TestPartitionKWayBalanceAndCompleteness(t *testing.T) {
	var edges [][]model.CellKey
	for i := int64(0); i < 100; i++ {
		edges = append(edges, []model.CellKey{cellKey(i % 17), cellKey((i * 3) % 17)})
	}
	parts := partitionKWay(edges, 4)
	total := 0
	seen := map[int]bool{}
	maxPart := 0
	for _, p := range parts {
		total += len(p)
		maxPart = max(maxPart, len(p))
		for _, e := range p {
			if seen[e] {
				t.Fatalf("hyperedge %d assigned twice", e)
			}
			seen[e] = true
		}
	}
	if total != 100 {
		t.Fatalf("partition lost edges: %d", total)
	}
	if maxPart > 100/4+1 {
		t.Errorf("imbalanced: max part %d", maxPart)
	}
}

func TestPartitionKWayPrefersSharedNodes(t *testing.T) {
	// Two tight clusters: good partitioning keeps each together.
	var edges [][]model.CellKey
	for i := int64(0); i < 10; i++ {
		edges = append(edges, []model.CellKey{cellKey(-1), cellKey(100 + i)})
	}
	for i := int64(10); i < 20; i++ {
		edges = append(edges, []model.CellKey{cellKey(-2), cellKey(100 + i)})
	}
	parts := partitionKWay(edges, 2)
	if len(parts) != 2 {
		t.Fatalf("parts = %d", len(parts))
	}
	if got := cut(edges, parts); got > 1 {
		t.Errorf("cut = %d; the two clusters should separate cleanly", got)
	}
}

func TestPartitionKWaySmall(t *testing.T) {
	parts := partitionKWay([][]model.CellKey{{cellKey(1)}}, 5)
	if len(parts) != 1 || len(parts[0]) != 1 {
		t.Errorf("single edge: %v", parts)
	}
	if got := partitionKWay(nil, 3); len(got) != 1 || len(got[0]) != 0 {
		t.Errorf("empty hypergraph: %v", got)
	}
}

// BenchmarkPartitionKWay measures the oversized-component splitter.
func BenchmarkPartitionKWay(b *testing.B) {
	edges := make([][]model.CellKey, 5000)
	for i := range edges {
		edges[i] = []model.CellKey{cellKey(int64(i % 97)), cellKey(int64(i*3) % 97)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = partitionKWay(edges, 8)
	}
}
