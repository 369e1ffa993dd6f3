package graph

import (
	"fmt"
	"testing"
)

// BenchmarkPartitionKWay measures the oversized-component splitter.
func BenchmarkPartitionKWay(b *testing.B) {
	edges := make([]HyperedgeOf[string], 5000)
	for i := range edges {
		edges[i] = HyperedgeOf[string]{ID: int64(i), Nodes: []string{
			fmt.Sprintf("c%d", i%97), fmt.Sprintf("c%d", (i*3)%97),
		}}
	}
	h := NewHypergraphOf(edges)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.PartitionKWay(8)
	}
}
