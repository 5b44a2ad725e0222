//go:build race

package rt

// raceEnabled reports whether the race detector is compiled in (under
// it sync.Pool drops items at random, so allocation budgets that count
// on machine reuse do not hold).
const raceEnabled = true
