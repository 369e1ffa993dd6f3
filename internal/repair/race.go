//go:build race

package repair

// raceEnabled reports a build with the race detector (see poison).
const raceEnabled = true
