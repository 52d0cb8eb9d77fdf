//go:build race

package data

// raceEnabled reports that the race detector is compiled in.
const raceEnabled = true
