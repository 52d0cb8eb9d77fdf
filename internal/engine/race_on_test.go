//go:build race

package engine

// raceEnabled reports that the race detector is compiled in.
const raceEnabled = true
