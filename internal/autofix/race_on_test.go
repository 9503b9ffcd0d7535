//go:build race

package autofix

// raceEnabled reports a race-instrumented test binary.
const raceEnabled = true
