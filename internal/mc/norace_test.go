//go:build !race

package mc

// RaceEnabled reports that the test binary runs under the race detector.
// Its instrumentation allocates too, so each allocation gate keeps one
// bound per mode, both measured on the same input.
const RaceEnabled = false
