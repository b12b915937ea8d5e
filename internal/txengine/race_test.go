//go:build race

package txengine

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = true
