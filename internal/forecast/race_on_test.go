//go:build race

package forecast

// raceEnabled reports that the race detector is on: it allocates on the
// program's behalf, so byte budgets do not hold under it.
const raceEnabled = true
