package store

import (
	"fmt"
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
	t.Logf("live heap %.2f MB after %d pairs, %.2f MB after %d; dictionary %d symbols over %d numbers (%d at the start), %d compactions",
		float64(base)/(1<<20), early, float64(heap)/(1<<20), late, st.Symbols, s.View().DB.Syms.Len(), live, st.SymbolCompactions)
	if heap > base+slack {
		t.Errorf("live heap grew %.2f MB from %d to %d pairs; want at most %.2f", float64(heap-base)/(1<<20), early, late, float64(slack)/(1<<20))
	}
	// Between two checks the dictionary gains a quarter of the nodes, and a
	// check leaves at most a quarter of it dead. The bound holds for the
	// strings held and for the numbers the array spans, free ones included,
	// which cost a string header each.
	bound := int64(2*live + s.View().DB.NumNodes()/2)
	if st.Symbols > bound {
		t.Errorf("the dictionary holds %d symbols, the document %d; want at most %d", st.Symbols, live, bound)
	}
	if span := int64(s.View().DB.Syms.Len()); span > bound {
		t.Errorf("the dictionary spans %d numbers, the document holds %d symbols; want at most %d", span, live, bound)
	}
	if st.SymbolCompactions == 0 {
		t.Error("no update compacted the dictionary")
	}
}

// TestSymbolBudget is the dictionary's stated budget. No number is reused
// below the highest live symbol, so the dictionary costs a string header per
// number up to it, and it keeps no dead string: a store filled with unique
// values, 90% of whose nodes are then deleted and the dictionary compacted,
// releases at least the deleted values' bytes, spans no number past its
// highest live symbol, and reports the strings it holds and the live symbols
// its last check found alike.
func TestSymbolBudget(t *testing.T) {
	const fill, width = 2000, 256
	s, _ := openCourses(t, 20)
	dept := 1
	value := func(k int) string { return fmt.Sprintf("%0*d", width, k) }
	ids := make([]int, fill)
	for k := range ids {
		res, err := s.InsertSubtree(dept, "<course><cno>"+value(k)+"</cno><title>t</title><prereq></prereq><takenBy></takenBy></course>")
		if err != nil {
			t.Fatal(err)
		}
		ids[k] = res.NodeID
	}
	base := liveHeap()
	deleted := fill * 9 / 10
	for k, id := range ids[:deleted] {
		if k == deleted-1 {
			s.ForceSymbolCompaction()
		}
		if _, err := s.DeleteSubtree(id); err != nil {
			t.Fatal(err)
		}
	}
	heap, st, db := liveHeap(), s.Stats(), s.View().DB
	t.Logf("live heap %.2f MB with %d unique values, %.2f MB with %d; %d compactions",
		float64(base)/(1<<20), fill, float64(heap)/(1<<20), fill-deleted, st.SymbolCompactions)
	if want := uint64(deleted * width); heap+want > base {
		t.Errorf("deleting %d values of %d B freed %d B of live heap; want at least %d", deleted, width, int64(base)-int64(heap), want)
	}
	live := map[int32]bool{0: true}
	hi := int32(0)
	db.EachNode(func(id int) {
		typ, _ := db.Label(id)
		sym, _ := db.Syms.Lookup(typ)
		for _, s := range [2]int32{db.ValSym(id), sym} {
			live[s], hi = true, max(hi, s)
		}
	})
	if n := db.Syms.Len(); n > int(hi)+1 {
		t.Errorf("the dictionary spans %d numbers; its highest live symbol is %d", n, hi)
	}
	if st.SymbolCompactions == 0 || st.Symbols != int64(len(live)) || st.SymbolsLive != int64(len(live)) {
		t.Errorf("after %d compactions the dictionary holds %d strings, %d live at its last check; want the %d symbols the document holds",
			st.SymbolCompactions, st.Symbols, st.SymbolsLive, len(live))
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
