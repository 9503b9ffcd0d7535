//go:build race

package core

// raceEnabled reports a race-instrumented test binary.
const raceEnabled = true
