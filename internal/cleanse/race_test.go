//go:build race

package cleanse

// raceEnabled reports a build with the race detector, under which
// allocation pins do not hold.
const raceEnabled = true
