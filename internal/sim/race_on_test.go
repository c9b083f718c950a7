//go:build race

package sim

// raceEnabled reports that the race detector is instrumenting this
// build; allocation counts are meaningless under its shadow-memory
// overhead.
const raceEnabled = true
