//go:build race

package dist

// raceEnabled reports that the test binary runs under the race detector.
// Its instrumentation allocates too, so each allocation gate keeps one
// bound per mode, both measured on the same input.
const raceEnabled = true
