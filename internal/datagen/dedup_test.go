package datagen

// DedupQuality measures a deduplication run. Because injected duplicates
// form clusters (an original replicated several times), correctness is
// judged cluster-wise: a detected pair is correct when both tuples belong
// to the same duplicate cluster, and a truth pair counts as recalled when
// the detected pairs connect its two tuples (directly or transitively).
func DedupQuality(tr *Truth, detected [][2]int64) Quality {
	truth := clusters(tr.DupPairs)
	correct := 0
	for _, p := range detected {
		if sameCluster(truth, p) {
			correct++
		}
	}
	found := clusters(detected)
	recalled := 0
	for _, p := range tr.DupPairs {
		if sameCluster(found, p) {
			recalled++
		}
	}
	q := Quality{Updated: len(detected), Correct: correct}
	if len(detected) > 0 {
		q.Precision = float64(correct) / float64(len(detected))
	}
	if len(tr.DupPairs) > 0 {
		q.Recall = float64(recalled) / float64(len(tr.DupPairs))
	}
	return q
}

// clusters labels every tuple the pairs name with one tuple of its
// cluster: the tuples the pairs connect, directly or transitively.
func clusters(pairs [][2]int64) map[int64]int64 {
	adj := map[int64][]int64{}
	for _, p := range pairs {
		adj[p[0]] = append(adj[p[0]], p[1])
		adj[p[1]] = append(adj[p[1]], p[0])
	}
	label := make(map[int64]int64, len(adj))
	for start := range adj {
		if _, ok := label[start]; ok {
			continue
		}
		label[start] = start
		for stack := []int64{start}; len(stack) > 0; {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, y := range adj[x] {
				if _, ok := label[y]; !ok {
					label[y] = start
					stack = append(stack, y)
				}
			}
		}
	}
	return label
}

// sameCluster reports whether the pairs labeled both tuples of p, into one
// cluster.
func sameCluster(label map[int64]int64, p [2]int64) bool {
	a, okA := label[p[0]]
	b, okB := label[p[1]]
	return okA && okB && a == b
}
