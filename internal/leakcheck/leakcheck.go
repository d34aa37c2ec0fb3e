// Package leakcheck is the package-level leak check of the test binaries of
// packages that start goroutines or open files: called from TestMain, it
// fails the binary when its tests, all passing, left a goroutine, a
// descriptor or a temp file behind.
package leakcheck

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// Main runs m's tests with TMPDIR pointed at a directory of their own and
// returns the exit code for os.Exit: theirs, or 1 when they passed but left
// more goroutines or descriptors than there were before them — after a
// bounded wait for the ones still winding down — or an entry in that
// directory.
//
// A fuzzing run (-test.fuzz) is only run: its coordinator kills its worker
// processes, which leave what they held behind.
func Main(m *testing.M) int {
	flag.Parse()
	if f := flag.Lookup("test.fuzz"); f != nil && f.Value.String() != "" {
		return m.Run()
	}
	tmp, err := os.MkdirTemp("", "leakcheck")
	if err != nil {
		fmt.Fprintln(os.Stderr, "leakcheck:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	os.Setenv("TMPDIR", tmp)
	// The runtime's poller opens descriptors of its own on first use, and
	// keeps them for the life of the process.
	if r, w, err := os.Pipe(); err == nil {
		r.Close()
		w.Close()
	}
	goroutines, fds := runtime.NumGoroutine(), openFDs()
	if code := m.Run(); code != 0 {
		return code
	}
	deadline := time.Now().Add(5 * time.Second)
	for (runtime.NumGoroutine() > goroutines || openFDs() > fds) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	var leaks []string
	if n := runtime.NumGoroutine(); n > goroutines {
		buf := make([]byte, 1<<16)
		leaks = append(leaks, fmt.Sprintf("%d goroutines after the tests, %d before:\n%s", n, goroutines, buf[:runtime.Stack(buf, true)]))
	}
	if n := openFDs(); n > fds {
		leaks = append(leaks, fmt.Sprintf("%d open descriptors after the tests, %d before", n, fds))
	}
	if left, _ := os.ReadDir(tmp); len(left) > 0 {
		leaks = append(leaks, fmt.Sprintf("the temp dir holds %d entries, first %s", len(left), left[0].Name()))
	}
	for _, l := range leaks {
		fmt.Fprintln(os.Stderr, "leakcheck:", l)
	}
	if len(leaks) > 0 {
		return 1
	}
	return 0
}

// openFDs counts the process's open descriptors, 0 where /proc is not there.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0
	}
	return len(ents)
}
