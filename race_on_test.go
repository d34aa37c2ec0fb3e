//go:build race

package xpath2sql

// raceEnabled reports whether this test binary was built with the race
// detector. sync.Pool deliberately drops a fraction of Puts under the race
// detector, so allocation bounds that depend on pool reuse skip themselves.
const raceEnabled = true
