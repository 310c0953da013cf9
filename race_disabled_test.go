//go:build !race

package wsnq_test

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
