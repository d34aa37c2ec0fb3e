package rdb

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// Tests of the derived interval encoding: across random inserts and deletes
// the labels a database carries must stay order-isomorphic to the dense ones
// RebuildIntervals computes from scratch — same document order, same
// containment, same levels — whatever slack they hold.

func saved(t *testing.T, db *DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkIsomorphic compares db's labels with a dense rebuild on a copy: equal
// canonical images (Save writes ranks), equal levels, and every interval at
// least as wide as its dense counterpart, the subtree size.
func checkIsomorphic(t *testing.T, step string, db *DB) {
	t.Helper()
	dense := cowDB(db)
	dense.RebuildIntervals()
	if db.IntervalCount() != db.NumNodes() {
		t.Fatalf("%s: %d labels for %d nodes", step, db.IntervalCount(), db.NumNodes())
	}
	if got, want := saved(t, db), saved(t, dense); !bytes.Equal(got, want) {
		t.Fatalf("%s: derived labels are not in the dense labels' order\nderived:\n%s\ndense:\n%s", step, got, want)
	}
	for _, id := range nodeIDs(db) {
		iv, _ := db.Interval(id)
		div, _ := dense.Interval(id)
		if iv.Level != div.Level || iv.End-iv.Begin < div.End-div.Begin {
			t.Fatalf("%s: node %d: derived %+v, dense %+v", step, id, iv, div)
		}
	}
}

// graft stores a random subtree of n fresh nodes as the last child of parent,
// store-style, and derives the new epoch's labels and indexes.
func (td *treeDoc) graft(r *rand.Rand, parent, n int) (db2 *DB, base, relabelled int) {
	db2 = cowDB(td.db)
	base = td.nextID
	for i := 0; i < n; i++ {
		id, f := td.nextID, parent
		if i > 0 {
			f = base + r.Intn(i)
		}
		td.nextID++
		rel := fmt.Sprintf("R%d", r.Intn(3))
		td.relOf[id] = rel
		db2.Insert(rel, f, id, "")
	}
	relabelled = db2.DeriveInsert(parent, base)
	db2.DeriveIndexes(td.db)
	return db2, base, relabelled
}

// prune removes the subtree of root, store-style, and derives the indexes.
func (td *treeDoc) prune(root int) *DB {
	deleted := td.subtree(root)
	db2 := cowDB(td.db)
	for _, id := range deleted {
		db2.Delete(td.relOf[id], db2.Parent(id), id)
	}
	db2.DeriveIndexes(td.db)
	return db2
}

func (td *treeDoc) nodes() []int { return nodeIDs(td.db) }

func TestDerivedIntervalsStayInDocumentOrder(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		td := makeTree(r, 30+r.Intn(40), 3)
		whole, local := 0, 0
		for step := 0; step < 200; step++ {
			ids := td.nodes()
			name := fmt.Sprintf("seed %d step %d", seed, step)
			if r.Intn(5) == 0 && len(ids) > 1 {
				td.db = td.prune(ids[1+r.Intn(len(ids)-1)])
			} else {
				// Most inserts go under the newest node, so chains grow and
				// free ranges run out; the rest land anywhere.
				parent := ids[len(ids)-1]
				if r.Intn(4) == 0 {
					parent = ids[r.Intn(len(ids))]
				}
				db2, _, n := td.graft(r, parent, 1+r.Intn(4))
				td.db = db2
				switch {
				case n == td.db.NumNodes():
					whole++
				case n > 0:
					local++
				}
			}
			checkIsomorphic(t, name, td.db)
		}
		t.Logf("seed %d: %d whole-database and %d local relabels", seed, whole, local)
		if whole == 0 || local == 0 {
			t.Errorf("seed %d: the walk does not reach both kinds of relabel", seed)
		}
	}
}

// TestInsertTakesSlackNotNeighbours: once a relabel has left slack, an insert
// writes the labels of its own nodes and no others, and a delete writes none.
func TestInsertTakesSlackNotNeighbours(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	td := makeTree(r, 200, 3)
	db2, _, n := td.graft(r, 1, 3)
	if n != db2.NumNodes() {
		t.Fatalf("the first insert into a dense database relabelled %d of %d nodes", n, db2.NumNodes())
	}
	td.db = db2
	for step := 0; step < 100; step++ {
		before := map[int]NodeInterval{}
		for _, id := range td.nodes() {
			before[id], _ = td.db.Interval(id)
		}
		ids := td.nodes()
		var now *DB
		if step%3 == 2 {
			now = td.prune(ids[1+r.Intn(len(ids)-1)])
		} else {
			var n int
			if now, _, n = td.graft(r, ids[r.Intn(len(ids))], 1+r.Intn(3)); n != 0 {
				t.Fatalf("step %d: insert relabelled %d nodes with slack everywhere", step, n)
			}
		}
		for _, id := range nodeIDs(now) {
			if was, old := before[id]; old {
				if iv, _ := now.Interval(id); iv != was {
					t.Fatalf("step %d: node %d moved from %+v to %+v", step, id, was, iv)
				}
			}
		}
		td.db = now
		checkIsomorphic(t, fmt.Sprintf("step %d", step), td.db)
	}
}

// TestDescIndexesSurviveUntouchedEpochs: an epoch derived without moving a
// label keeps the previous epoch's descendant indexes for the relations the
// two share, derives the one the update cloned from its parent's instead of
// re-sorting it — a text update shares its begins and ends — and never holds
// an index of a relation it does not store; a relabel carries nothing over.
func TestDescIndexesSurviveUntouchedEpochs(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	td := makeTree(r, 120, 3)
	retext := func(prev *DB, touch string, step int) *DB {
		nd := prev.Derive()
		nd.Rels[touch] = nd.Rels[touch].Clone()
		w := nd.Rels[touch].rows[r.Intn(len(nd.Rels[touch].rows))]
		nd.UpdateValue(touch, int(w.f), int(w.t), fmt.Sprintf("v%d", step))
		nd.DeriveIndexes(prev)
		return nd
	}
	warm := func(db *DB) map[string]*descIndex {
		out := map[string]*descIndex{}
		for name, rel := range db.Rels {
			idx, err := db.encoding().indexFor(rel)
			if err != nil {
				t.Fatalf("no index for %s: %v", name, err)
			}
			out[name] = idx
		}
		return out
	}
	warmed := warm(td.db)
	db := td.db
	for i := 0; i < 200; i++ { // a text-update stream: one relation cloned per epoch
		touch := fmt.Sprintf("R%d", i%3)
		db = retext(db, touch, i)
		if n := len(db.nodes.Load().byRel); n != len(db.Rels) {
			t.Fatalf("epoch %d carried %d indexes for %d relations", i, n, len(db.Rels))
		}
		if n, err := db.VerifyDescIndexes(); err != nil || n != len(db.Rels) {
			t.Fatalf("epoch %d: %d indexes checked: %v", i, n, err)
		}
		warmed = warm(db)
	}
	next := retext(db, "R0", 200)
	var built []string
	defer OnDescIndexBuild(func(rel string) { built = append(built, rel) })()
	for name, idx := range warm(next) {
		if same := idx == warmed[name]; same == (name == "R0") {
			t.Errorf("%s: index reused = %v", name, same)
		}
		if was := warmed[name]; &idx.begins[0] != &was.begins[0] || &idx.ends[0] != &was.ends[0] {
			t.Errorf("%s: the text update copied the index's begins or ends", name)
		}
	}
	if len(built) != 0 {
		t.Errorf("reads of the last epoch built the indexes of %v, want none", built)
	}
	// A relabel moves labels under every relation: nothing is inherited.
	td.db = next
	db2, _, n := td.graft(r, 1, 2)
	if n == 0 {
		t.Fatal("the first insert into a dense database did not relabel")
	}
	if got := len(db2.nodes.Load().byRel); got != 0 {
		t.Fatalf("%d indexes carried across a relabel", got)
	}
}

// TestIndexBuildsRunOutsideTheCacheLock: concurrent readers of one relation
// build its descendant index once, and a reader of another relation does not
// wait for that build — it gets its own index while the first is held up.
func TestIndexBuildsRunOutsideTheCacheLock(t *testing.T) {
	td := makeTree(rand.New(rand.NewSource(3)), 600, 3)
	st := td.db.encoding()
	var mu sync.Mutex
	builds := map[string]int{}
	started, release := make(chan struct{}), make(chan struct{})
	defer OnDescIndexBuild(func(rel string) {
		mu.Lock()
		builds[rel]++
		mu.Unlock()
		if rel == "R0" {
			close(started)
			<-release
		}
	})()

	const readers = 4
	var held sync.WaitGroup
	got := make([]*descIndex, readers)
	for i := range readers {
		held.Add(1)
		go func() {
			defer held.Done()
			got[i], _ = st.indexFor(td.db.Rels["R0"])
		}()
	}
	<-started
	var others sync.WaitGroup
	for i := range 2 * readers {
		others.Add(1)
		go func() {
			defer others.Done()
			if _, err := st.indexFor(td.db.Rels[fmt.Sprintf("R%d", 1+i%2)]); err != nil {
				t.Error(err)
			}
		}()
	}
	done := make(chan struct{})
	go func() { others.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Error("readers of R1 and R2 waited for the build of R0's index")
	}
	close(release)
	held.Wait()
	<-done
	for i := range got {
		if got[i] == nil || got[i] != got[0] {
			t.Fatalf("reader %d of R0 got index %p, reader 0 %p", i, got[i], got[0])
		}
	}
	for _, name := range []string{"R0", "R1", "R2"} {
		if builds[name] != 1 {
			t.Errorf("%s: %d index builds, want 1", name, builds[name])
		}
	}
	if n, err := td.db.VerifyDescIndexes(); n != 3 || err != nil {
		t.Errorf("%d indexes checked: %v", n, err)
	}
}

// TestEmptiedChunksAreDropped: node IDs are never reused, so a store that
// inserts and deletes for long enough must not keep a chunk for every 128 IDs
// it ever assigned, nor a page or a top entry for every 32 768.
func TestEmptiedChunksAreDropped(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	td := makeTree(r, 50, 3)
	chunks := func() (n, top int) {
		tab := td.db.nodes.Load().tab
		tab.eachChunk(func(int, *nodeChunk) { n++ })
		return n, len(tab.top)
	}
	if n, top := chunks(); n != 1 || top != 1 {
		t.Fatalf("%d chunks under %d pages for 50 nodes", n, top)
	}
	for round := 0; round < 5; round++ {
		td.nextID = (round + 2) * nodeChunkLen // a chunk of its own
		if round >= 3 {
			td.nextID = round << nodePageShift // a page of its own
		}
		db2, base, _ := td.graft(r, 1, 4)
		td.db = db2
		if n, _ := chunks(); n != 2 {
			t.Fatalf("round %d: %d chunks after the insert, want 2", round, n)
		}
		td.db = td.prune(base)
		if n, top := chunks(); n != 1 || top != 1 || td.db.IntervalCount() != 50 {
			t.Fatalf("round %d: %d chunks under %d pages, %d labels after the delete, want 1, 1 and 50", round, n, top, td.db.IntervalCount())
		}
		checkIsomorphic(t, fmt.Sprintf("round %d", round), td.db)
	}
}
