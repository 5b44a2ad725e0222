//go:build !race

package cpu_test

// raceEnabled reports whether the race detector is compiled in: the
// single-goroutine recycling differential leaves the SPEC kernels out
// under it, where they cost half a minute and can find nothing.
const raceEnabled = false
