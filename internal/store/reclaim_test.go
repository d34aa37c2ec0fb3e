package store

import (
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestInternerHeapIsFlat is the soak test of symbol reclamation: on a fixed
// document, 32 000 insert+delete pairs of courses whose values no update sent
// before leave the live heap within 0.5 MB of where 2 000 pairs left it, and
// the dictionary within a constant factor of the symbols the document holds.
// A dictionary that kept every value it was sent grows ≈190 B a pair (+6 MB
// here).
func TestInternerHeapIsFlat(t *testing.T) {
	const early, late, slack = 2000, 32000, 512 << 10
	s, m := openCourses(t, 200)
	dept := m.byLabel("dept")[0]
	live := s.View().DB.Syms.Len()
	var base uint64
	for k := 0; k < late; k++ {
		res, err := s.InsertSubtree(dept, fragCourse(k))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.DeleteSubtree(res.NodeID); err != nil {
			t.Fatal(err)
		}
		if k+1 == early {
			base = liveHeap()
		}
	}
	heap, st := liveHeap(), s.Stats()
	t.Logf("live heap %.2f MB after %d pairs, %.2f MB after %d; dictionary %d symbols (%d at the start), %d compactions",
		float64(base)/(1<<20), early, float64(heap)/(1<<20), late, st.Symbols, live, st.SymbolCompactions)
	if heap > base+slack {
		t.Errorf("live heap grew %.2f MB from %d to %d pairs; want at most %.2f", float64(heap-base)/(1<<20), early, late, float64(slack)/(1<<20))
	}
	// Between two checks the dictionary gains a quarter of the nodes, and a
	// check leaves at most a quarter of it dead.
	if bound := int64(2*live + s.View().DB.NumNodes()/2); st.Symbols > bound {
		t.Errorf("the dictionary holds %d symbols, the document %d; want at most %d", st.Symbols, live, bound)
	}
	if st.SymbolCompactions == 0 {
		t.Error("no update compacted the dictionary")
	}
}

// TestCloseWaitsForCheckpoint holds an automatic checkpoint as it starts
// writing its snapshot and closes the store: Close returns only once the
// checkpoint has finished — its snapshot renamed into place, no temporary file
// left, the superseded files collected — so nothing writes the directory
// after Close.
func TestCloseWaitsForCheckpoint(t *testing.T) {
	dir := t.TempDir()
	const every = 5
	s, m := openSeeded(t, dir, 19, 150, Config{Fsync: FsyncNever, CheckpointEvery: every})
	held, release := make(chan struct{}), make(chan struct{})
	s.snapshotHook = func() {
		close(held)
		<-release
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < every; {
		if applyRandomOp(t, s, m, rng, i) {
			i++
		}
	}
	<-held
	lsn := s.View().LSN
	// Close must not return while the checkpoint is held; the release comes
	// later, from a timer, so a Close that does not wait returns first.
	time.AfterFunc(50*time.Millisecond, func() { close(release) })
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := s.Stats().Checkpoints; n != 2 {
		t.Fatalf("Close returned with %d checkpoints counted; want the boot snapshot's and the automatic one's", n)
	}
	if _, err := os.Stat(filepath.Join(dir, snapName(lsn))); err != nil {
		t.Fatalf("the automatic checkpoint's snapshot: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") || strings.HasPrefix(e.Name(), "snap-") && e.Name() != snapName(lsn) {
			t.Errorf("after Close the directory holds %s", e.Name())
		}
	}
}
