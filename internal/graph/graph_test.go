package graph

import (
	"fmt"
	"testing"
)

func TestUnionFindBasics(t *testing.T) {
	uf := NewUnionFind()
	uf.Union(1, 2)
	uf.Union(3, 4)
	if uf.Find(1) != uf.Find(2) {
		t.Error("1 and 2 merged")
	}
	if uf.Find(1) == uf.Find(3) {
		t.Error("1 and 3 separate")
	}
	uf.Union(2, 3)
	if uf.Find(1) != uf.Find(4) {
		t.Error("transitive merge")
	}
	comps := uf.Components()
	for _, v := range []int64{1, 2, 3, 4} {
		if comps[v] != 1 {
			t.Errorf("component of %d = %d", v, comps[v])
		}
	}
}

func TestPartitionKWayBalanceAndCompleteness(t *testing.T) {
	var edges []HyperedgeOf[string]
	for i := int64(0); i < 100; i++ {
		edges = append(edges, HyperedgeOf[string]{ID: i, Nodes: []string{
			fmt.Sprintf("c%d", i%17), fmt.Sprintf("c%d", (i*3)%17),
		}})
	}
	h := NewHypergraphOf(edges)
	parts := h.PartitionKWay(4)
	total := 0
	seen := map[int64]bool{}
	maxPart := 0
	for _, p := range parts {
		total += len(p)
		if len(p) > maxPart {
			maxPart = len(p)
		}
		for _, e := range p {
			if seen[e.ID] {
				t.Fatalf("hyperedge %d assigned twice", e.ID)
			}
			seen[e.ID] = true
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
	var edges []HyperedgeOf[string]
	for i := int64(0); i < 10; i++ {
		edges = append(edges, HyperedgeOf[string]{ID: i, Nodes: []string{"a1", fmt.Sprintf("x%d", i)}})
	}
	for i := int64(10); i < 20; i++ {
		edges = append(edges, HyperedgeOf[string]{ID: i, Nodes: []string{"b1", fmt.Sprintf("y%d", i)}})
	}
	h := NewHypergraphOf(edges)
	parts := h.PartitionKWay(2)
	if len(parts) != 2 {
		t.Fatalf("parts = %d", len(parts))
	}
	if got := Cut(parts); got > 1 {
		t.Errorf("cut = %d; the two clusters should separate cleanly", got)
	}
}

func TestPartitionKWaySmall(t *testing.T) {
	h := NewHypergraphOf([]HyperedgeOf[string]{{ID: 1, Nodes: []string{"a"}}})
	parts := h.PartitionKWay(5)
	if len(parts) != 1 || len(parts[0]) != 1 {
		t.Errorf("single edge: %v", parts)
	}
	empty := NewHypergraphOf[string](nil)
	if got := empty.PartitionKWay(3); len(got) != 1 || len(got[0]) != 0 {
		t.Errorf("empty hypergraph: %v", got)
	}
}

func TestCut(t *testing.T) {
	parts := [][]HyperedgeOf[string]{
		{{ID: 1, Nodes: []string{"a", "b"}}},
		{{ID: 2, Nodes: []string{"b", "c"}}},
		{{ID: 3, Nodes: []string{"d"}}},
	}
	if got := Cut(parts); got != 1 {
		t.Errorf("cut = %d, want 1 (only b crosses)", got)
	}
}
