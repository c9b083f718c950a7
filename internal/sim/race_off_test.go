//go:build !race

package sim

// raceEnabled reports whether the race detector is instrumenting this
// build.
const raceEnabled = false
