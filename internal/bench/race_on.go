//go:build race

package bench

// RaceEnabled reports whether the binary was built with the race detector,
// whose instrumentation allocates on its own and invalidates the
// steady-state zero-alloc measurement.
const RaceEnabled = true
