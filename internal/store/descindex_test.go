package store

import (
	"bytes"
	"math/rand"
	"testing"

	"xpath2sql/internal/rdb"
	"xpath2sql/internal/workload"
	"xpath2sql/internal/xmltree"
)

// indexAll indexes every relation of a dept database: a run scoped to the
// document reads each relation it scans through its begin-sorted index, so
// dept//T scoped to the root indexes R_T and the relations on the way to it.
// It returns how many indexes the database then holds, each checked against a
// fresh build.
func indexAll(t *testing.T, db *rdb.DB) int {
	t.Helper()
	d := workload.Dept()
	for _, typ := range d.Types() {
		scopedAnswers(t, db, d, "dept//"+typ, 1)
	}
	n, err := db.VerifyDescIndexes()
	if err != nil {
		t.Fatal(err)
	}
	if types := len(d.Types()); n != types {
		t.Fatalf("%d relations indexed of %d", n, types)
	}
	return n
}

// indexWalk checks the descendant indexes an update carries into its epoch:
// before each update every relation of the current epoch is indexed, after it
// every index of the new epoch must equal a fresh build, field by field, and
// unless the update relabelled, the new epoch holds one for every relation
// the parent had indexed — shared, or patched with the update's own rows.
type indexWalk struct {
	t        *testing.T
	s        *Store
	carried  map[string]int // epochs whose indexes an update of each op carried
	relabels int
}

func (w *indexWalk) step(update func()) {
	w.t.Helper()
	indexed := indexAll(w.t, w.s.View().DB)
	before, relabels := w.s.View(), w.s.Stats().Relabels
	update()
	after := w.s.View()
	if after == before {
		return
	}
	n, err := after.DB.VerifyDescIndexes()
	if err != nil {
		w.t.Fatalf("epoch %d: %v", after.Seq, err)
	}
	if w.s.Stats().Relabels != relabels {
		w.relabels++
		return
	}
	if n != indexed {
		w.t.Fatalf("epoch %d: carried %d of the parent's %d indexes", after.Seq, n, indexed)
	}
	w.carried[w.lastOp(before.DB, after.DB)]++
}

// lastOp names the kind of the update between two epochs by its effect.
func (w *indexWalk) lastOp(prev, db *rdb.DB) string {
	switch {
	case db.NumNodes() > prev.NumNodes():
		return OpInsert
	case db.NumNodes() < prev.NumNodes():
		return OpDelete
	}
	return OpUpdateText
}

// TestPatchedDescIndexesEqualRebuilt is the differential test of the writer's
// index patches: along a random walk of inserts (some at a pinned base past an
// ID gap, some on a dense image, which relabel), deletes and text updates —
// four of them moving the store onto a compact dictionary — and then along
// the replay of the walk's WAL onto its boot snapshot, every index an epoch
// holds equals one built afresh from its relation.
func TestPatchedDescIndexesEqualRebuilt(t *testing.T) {
	d := workload.Dept()
	dir := t.TempDir()
	s, m := openSeeded(t, dir, 5, 400, Config{Fsync: FsyncNever})
	live := &indexWalk{t: t, s: s, carried: map[string]int{}}
	rng := rand.New(rand.NewSource(55))
	for i := 0; i < 200; i++ {
		if i%50 == 20 {
			s.ForceSymbolCompaction()
		}
		if i%10 != 9 {
			live.step(func() { applyRandomOp(t, s, m, rng, i) })
			continue
		}
		parents := m.byLabel("dept", "prereq", "qualified", "required")
		p, frag := parents[rng.Intn(len(parents))], fragCourse(i)
		live.step(func() {
			base := s.nextID + 1 + rng.Intn(3*1024) // past a gap, often into a chunk of its own
			res, err := s.InsertSubtreeAt(p, frag, base)
			if err != nil {
				t.Fatalf("insert at %d under %d: %v", base, p, err)
			}
			doc, err := xmltree.Parse(frag)
			if err != nil {
				t.Fatal(err)
			}
			m.insert(res.NodeID, p, doc)
		})
	}
	if n := s.Stats().SymbolCompactions; n < 4 {
		t.Errorf("%d dictionary compactions; want the four the walk forced at least", n)
	}
	want := saveBytes(t, s.View().DB)
	if !bytes.Equal(want, saveBytes(t, m.buildDB(d))) {
		t.Fatal("the walk's last epoch differs from the re-shredded document")
	}
	snap, ok, err := latestSnapshot(dir)
	if err != nil || !ok {
		t.Fatalf("no boot snapshot: %v", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.crash()

	// The replay, record by record, through the path Open replays through.
	r, err := Open(Config{DTD: d, SnapshotPath: snap})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	replay := &indexWalk{t: t, s: r, carried: map[string]int{}}
	for _, seg := range segs {
		if _, torn, err := readSegment(seg.path, func(rec walRecord) error {
			var err error
			replay.step(func() { _, err = r.applyRecord(rec, false) })
			return err
		}); err != nil || torn {
			t.Fatalf("replay of %s: torn %v, %v", seg.path, torn, err)
		}
	}
	if !bytes.Equal(saveBytes(t, r.View().DB), want) {
		t.Fatal("the replayed store differs from the live one")
	}
	for _, w := range []*indexWalk{live, replay} {
		t.Logf("epochs carrying every index: %v; relabels: %d", w.carried, w.relabels)
		for _, op := range []string{OpInsert, OpDelete, OpUpdateText} {
			if w.carried[op] < 10 {
				t.Errorf("only %d %s epochs carried their parent's indexes", w.carried[op], op)
			}
		}
		if w.relabels == 0 {
			t.Error("no insert relabelled")
		}
	}
}
