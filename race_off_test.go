//go:build !race

package mdes_test

// raceEnabled reports that the race detector is compiled in (see
// race_on_test.go).
const raceEnabled = false
