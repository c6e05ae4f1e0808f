//go:build race

package mdes_test

// raceEnabled reports that the race detector is compiled in. Under it
// sync.Pool drops items at random, so pooled contexts are refilled at
// random and allocation counts are not repeatable.
const raceEnabled = true
