//go:build !race

package xpath2sql

// raceEnabled reports whether this test binary was built with the race
// detector; see race_on_test.go.
const raceEnabled = false
