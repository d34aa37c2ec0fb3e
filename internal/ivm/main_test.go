package ivm

import (
	"os"
	"testing"

	"xpath2sql/internal/leakcheck"
)

// TestMain fails the package when its tests leave a goroutine, a descriptor or
// a temp file behind: the hub's maintainer is the goroutine this package starts.
func TestMain(m *testing.M) { os.Exit(leakcheck.Main(m)) }
