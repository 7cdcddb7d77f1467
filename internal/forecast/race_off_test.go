//go:build !race

package forecast

const raceEnabled = false
