//go:build race

package htmlparse

// raceEnabled reports a race-instrumented test binary.
const raceEnabled = true
