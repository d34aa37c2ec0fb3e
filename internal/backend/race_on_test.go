//go:build race

package backend_test

// raceEnabled reports whether this test binary was built with the race
// detector, under which sync.Pool drops a fraction of Puts: allocation counts
// that rest on pool reuse mean nothing there.
const raceEnabled = true
