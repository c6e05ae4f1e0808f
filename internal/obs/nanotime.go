package obs

import _ "unsafe" // for go:linkname

// Nanotime returns the runtime's raw monotonic clock in nanoseconds —
// the observation buffer's one clock. The flight view reads it once per
// block and the metrics view once per sampled attempt pair, so the read
// is the dominant per-block observation cost; runtime.nanotime reads one
// clock where time.Now reads the monotonic and wall clocks both, and
// skipping the time.Time round-trip roughly halves it. Readings are only
// meaningful as differences.
//
//go:linkname Nanotime runtime.nanotime
func Nanotime() int64
