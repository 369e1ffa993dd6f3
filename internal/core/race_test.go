//go:build race

package core_test

// raceEnabled reports a build with the race detector, under which
// sync.Pool.Put drops a share of what it is given: an allocation pin that
// runs through a pool would count the scratch the pool dropped.
const raceEnabled = true
