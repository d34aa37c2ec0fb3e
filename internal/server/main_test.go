package server

import (
	"os"
	"testing"

	"xpath2sql/internal/leakcheck"
)

// TestMain fails the package when its tests leave a goroutine, a descriptor or
// a temp file behind.
func TestMain(m *testing.M) { os.Exit(leakcheck.Main(m)) }
