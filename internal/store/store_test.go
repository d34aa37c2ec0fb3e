package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"xpath2sql/internal/backend"
	"xpath2sql/internal/core"
	"xpath2sql/internal/dtd"
	"xpath2sql/internal/rdb"
	"xpath2sql/internal/shred"
	"xpath2sql/internal/workload"
	"xpath2sql/internal/xmlgen"
	"xpath2sql/internal/xmltree"
	"xpath2sql/internal/xpath"
)

// seedFloor is the fewest nodes a seed document may have. At X_L 4 and X_R 3
// some seeds generate a bare <dept/>, on which a test checks nothing beyond
// the root.
const seedFloor = 10

// seedDB generates a dept document and shreds it, returning the database and
// a mirror initialized from the same document. A seed whose document has
// fewer than seedFloor nodes fails the test.
func seedDB(t *testing.T, seed int64, maxNodes int) (*rdb.DB, *mirror) {
	t.Helper()
	d := workload.Dept()
	doc, err := xmlgen.Generate(d, xmlgen.Options{XL: 4, XR: 3, Seed: seed, MaxNodes: maxNodes})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	if doc.Size() < seedFloor {
		t.Fatalf("seed %d generates %d nodes, fewer than %d: pick a seed with content", seed, doc.Size(), seedFloor)
	}
	t.Logf("seed %d: %d nodes", seed, doc.Size())
	db, err := shred.Shred(doc, d)
	if err != nil {
		t.Fatalf("shred: %v", err)
	}
	m := newMirror()
	for _, n := range doc.Nodes() {
		parent := 0
		if n.Parent != nil {
			parent = int(n.Parent.ID)
		}
		m.add(int(n.ID), parent, n.Label, n.Val)
	}
	return db, m
}

func openSeeded(t *testing.T, dir string, seed int64, maxNodes int, cfg Config) (*Store, *mirror) {
	t.Helper()
	db, m := seedDB(t, seed, maxNodes)
	cfg.DTD = workload.Dept()
	cfg.Seed = db
	cfg.Dir = dir
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s, m
}

// mirror is the test's reference model of the document: a node catalog kept
// in lockstep with the store through the same update sequence, from which a
// fresh database can be re-shredded at any point.
type mirror struct {
	labels   map[int]string
	vals     map[int]string
	parent   map[int]int
	children map[int][]int
}

func newMirror() *mirror {
	return &mirror{
		labels:   map[int]string{},
		vals:     map[int]string{},
		parent:   map[int]int{},
		children: map[int][]int{},
	}
}

func (m *mirror) add(id, parent int, label, val string) {
	m.labels[id] = label
	m.vals[id] = val
	m.parent[id] = parent
	m.children[parent] = append(m.children[parent], id)
}

// insert mirrors InsertSubtree: fragment nodes get IDs base, base+1, … in
// preorder.
func (m *mirror) insert(base, parentID int, frag *xmltree.Document) {
	for _, n := range frag.Nodes() {
		id := base + int(n.ID) - 1
		p := parentID
		if n.Parent != nil {
			p = base + int(n.Parent.ID) - 1
		}
		m.add(id, p, n.Label, n.Val)
	}
}

// deleteSubtree mirrors DeleteSubtree.
func (m *mirror) deleteSubtree(id int) int {
	ids := []int{id}
	for i := 0; i < len(ids); i++ {
		ids = append(ids, m.children[ids[i]]...)
	}
	for _, n := range ids {
		p := m.parent[n]
		kids := m.children[p]
		for i, k := range kids {
			if k == n {
				m.children[p] = append(kids[:i], kids[i+1:]...)
				break
			}
		}
		delete(m.labels, n)
		delete(m.vals, n)
		delete(m.parent, n)
		delete(m.children, n)
	}
	return len(ids)
}

// byLabel returns the sorted live node IDs carrying one of the labels.
func (m *mirror) byLabel(labels ...string) []int {
	var out []int
	for id, l := range m.labels {
		for _, want := range labels {
			if l == want {
				out = append(out, id)
				break
			}
		}
	}
	sort.Ints(out)
	return out
}

// buildDB re-shreds the mirrored document from scratch: the ground truth an
// incrementally maintained store must match exactly.
func (m *mirror) buildDB(d *dtd.DTD) *rdb.DB {
	db := rdb.NewDB()
	for _, typ := range d.Types() {
		db.Rel(shred.RelName(typ))
	}
	ld := db.NewLoader()
	var ids []int
	for id := range m.labels {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		ld.Insert(shred.RelName(m.labels[id]), m.labels[id], m.parent[id], id, m.vals[id])
	}
	// Match the store's epoch invariant: every published DB carries the
	// interval encoding and the shredding DTD's fingerprint.
	db.DTDFP = d.Fingerprint()
	db.RebuildIntervals()
	return db
}

func saveBytes(t *testing.T, db *rdb.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	return buf.Bytes()
}

// Fragment builders for insert targets under the dept DTD. Values include
// quotes, newlines (via text updates) and non-ASCII to stress WAL and
// snapshot encoding.
func fragCourse(k int) string {
	return fmt.Sprintf(`<course><cno>c-%d</cno><title>t-%d "später"</title><prereq></prereq><takenBy></takenBy></course>`, k, k)
}
func fragStudent(k int) string {
	return fmt.Sprintf(`<student><sno>s-%d</sno><name>ünïcode-%d</name><qualified></qualified></student>`, k, k)
}
func fragProject(k int) string {
	return fmt.Sprintf(`<project><pno>p-%d</pno><ptitle>pt "%d"</ptitle><required></required></project>`, k, k)
}

// applyRandomOp performs one random valid update on both the store and the
// mirror, returning false if no target was available.
func applyRandomOp(t *testing.T, s *Store, m *mirror, rng *rand.Rand, k int) bool {
	t.Helper()
	switch rng.Intn(4) {
	case 0, 1: // insert
		var parents []int
		var frag string
		switch rng.Intn(3) {
		case 0:
			parents = m.byLabel("dept", "prereq", "qualified", "required")
			frag = fragCourse(k)
		case 1:
			parents = m.byLabel("takenBy")
			frag = fragStudent(k)
		default:
			parents = m.byLabel("course")
			frag = fragProject(k)
		}
		if len(parents) == 0 {
			return false
		}
		p := parents[rng.Intn(len(parents))]
		res, err := s.InsertSubtree(p, frag)
		if err != nil {
			t.Fatalf("insert under %d: %v", p, err)
		}
		doc, err := xmltree.Parse(frag)
		if err != nil {
			t.Fatalf("parse fragment: %v", err)
		}
		if res.Nodes != doc.Size() {
			t.Fatalf("insert reported %d nodes, fragment has %d", res.Nodes, doc.Size())
		}
		m.insert(res.NodeID, p, doc)
	case 2: // delete
		targets := m.byLabel("course", "student", "project")
		if len(targets) == 0 {
			return false
		}
		id := targets[rng.Intn(len(targets))]
		res, err := s.DeleteSubtree(id)
		if err != nil {
			t.Fatalf("delete %d (%s): %v", id, m.labels[id], err)
		}
		if n := m.deleteSubtree(id); n != res.Nodes {
			t.Fatalf("delete %d: store removed %d nodes, mirror %d", id, res.Nodes, n)
		}
	default: // text update
		targets := m.byLabel("cno", "title", "sno", "name", "pno", "ptitle")
		if len(targets) == 0 {
			return false
		}
		id := targets[rng.Intn(len(targets))]
		v := fmt.Sprintf("v%d \"q\"\nline2 €", k)
		if _, err := s.UpdateText(id, v); err != nil {
			t.Fatalf("update text %d: %v", id, err)
		}
		m.vals[id] = v
	}
	return true
}

var diffQueries = []string{
	"dept//course",
	"dept//course/cno",
	"dept//project | dept//student",
	"dept//course[prereq//course]",
	"dept//student[not(qualified//course)]",
}

// answers runs the query against db under the given strategy, returning
// sorted answer IDs.
func answers(t *testing.T, db *rdb.DB, d *dtd.DTD, query string, strat core.Strategy) []int {
	t.Helper()
	q, err := xpath.Parse(query)
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	opts := core.DefaultOptions()
	opts.Strategy = strat
	res, err := core.Translate(q, d, opts)
	if err != nil {
		t.Fatalf("translate %q (%v): %v", query, strat, err)
	}
	res2, err := backend.AdoptDB(db, 0).Execute(context.Background(), res.Program, backend.ExecOptions{})
	if err != nil {
		t.Fatalf("run %q: %v", query, err)
	}
	return res2.IDs
}

// TestDifferentialRandomUpdates drives a random update sequence through the
// store and checks, at intervals, that the incrementally maintained database
// is byte-identical (in rdb.Save form) to re-shredding the mutated document
// from scratch, and that every translation strategy returns the same answers
// on both.
func TestDifferentialRandomUpdates(t *testing.T) {
	d := workload.Dept()
	for _, seed := range []int64{1, 7} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			s, m := openSeeded(t, "", seed, 300, Config{})
			rng := rand.New(rand.NewSource(seed * 101))
			const steps = 120
			for i := 0; i < steps; i++ {
				applyRandomOp(t, s, m, rng, i)
				if i%30 != 29 && i != steps-1 {
					continue
				}
				got := saveBytes(t, s.View().DB)
				want := saveBytes(t, m.buildDB(d))
				if !bytes.Equal(got, want) {
					t.Fatalf("step %d: incremental state diverges from re-shredded state\nincremental %d bytes, re-shredded %d bytes", i, len(got), len(want))
				}
			}
			db := s.View().DB
			ref := m.buildDB(d)
			for _, q := range diffQueries {
				for _, strat := range []core.Strategy{core.StrategyCycleEX, core.StrategyCycleE, core.StrategySQLGenR} {
					got := answers(t, db, d, q, strat)
					want := answers(t, ref, d, q, strat)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Errorf("%q strategy %v: store %v, re-shredded %v", q, strat, got, want)
					}
				}
			}
		})
	}
}

func TestValidationErrors(t *testing.T) {
	s, m := openSeeded(t, "", 4, 200, Config{})
	dept := m.byLabel("dept")[0]

	cases := []struct {
		name string
		do   func() error
		want error
	}{
		{"bad xml", func() error { _, err := s.InsertSubtree(dept, "<course><"); return err }, ErrBadFragment},
		{"unknown parent", func() error { _, err := s.InsertSubtree(999999, fragCourse(0)); return err }, ErrUnknownNode},
		{"second root", func() error { _, err := s.InsertSubtree(0, fragCourse(0)); return err }, ErrInvalid},
		{"wrong child type", func() error { _, err := s.InsertSubtree(dept, fragStudent(0)); return err }, ErrInvalid},
		{"undeclared element", func() error { _, err := s.InsertSubtree(dept, "<bogus></bogus>"); return err }, ErrInvalid},
		{"nonconforming interior", func() error {
			_, err := s.InsertSubtree(dept, "<course><cno>x</cno></course>")
			return err
		}, ErrInvalid},
		{"delete unknown", func() error { _, err := s.DeleteSubtree(999999); return err }, ErrUnknownNode},
		{"delete root", func() error { _, err := s.DeleteSubtree(dept); return err }, ErrInvalid},
		{"update unknown", func() error { _, err := s.UpdateText(999999, "x"); return err }, ErrUnknownNode},
		{"checkpoint ephemeral", func() error { _, err := s.Checkpoint(); return err }, ErrNoDurability},
	}
	// Deleting a required child (cno of some course) must be rejected.
	cnos := m.byLabel("cno")
	if len(cnos) == 0 {
		t.Fatal("the seed document has no course, so no required child to delete")
	}
	cases = append(cases, struct {
		name string
		do   func() error
		want error
	}{"delete required child", func() error { _, err := s.DeleteSubtree(cnos[0]); return err }, ErrInvalid})

	before := saveBytes(t, s.View().DB)
	seq := s.View().Seq
	for _, c := range cases {
		if err := c.do(); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
	}
	if got := s.View().Seq; got != seq {
		t.Fatalf("rejected updates advanced the epoch: %d -> %d", seq, got)
	}
	if !bytes.Equal(before, saveBytes(t, s.View().DB)) {
		t.Fatal("rejected updates changed the database")
	}
	if st := s.Stats(); st.Rejected < int64(len(cases)-1) {
		t.Errorf("Rejected = %d, want >= %d", st.Rejected, len(cases)-1)
	}
}

// TestUnlabelledNodeIsCorrupt: validation finds a node and its element type
// in the node table (DB.Label). A node the table holds without a type is
// a corrupt catalog, not an unknown node, and no update naming it applies.
func TestUnlabelledNodeIsCorrupt(t *testing.T) {
	db, m := seedDB(t, 23, 250)
	cno := m.byLabel("cno")[0]
	bare := db.MaxNodeID() + 1
	db.Insert(shred.RelName("prereq"), m.parent[cno], bare, "")
	s, err := Open(Config{DTD: workload.Dept(), Seed: db})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for name, do := range map[string]func() error{
		"insert under": func() error { _, err := s.InsertSubtree(bare, fragCourse(0)); return err },
		"delete":       func() error { _, err := s.DeleteSubtree(bare); return err },
		"update text":  func() error { _, err := s.UpdateText(bare, "x"); return err },
	} {
		if err := do(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s the unlabelled node: got %v, want ErrCorrupt", name, err)
		}
	}
	if _, err := s.UpdateText(cno, "x"); err != nil {
		t.Errorf("update text of a labelled node: %v", err)
	}
	for _, id := range []int{bare + 1, -1, 1<<32 + cno} {
		if _, err := s.UpdateText(id, "x"); !errors.Is(err, ErrUnknownNode) {
			t.Errorf("update text of node %d: got %v, want ErrUnknownNode", id, err)
		}
	}
}

// pinnedEpoch is an epoch a test pinned, with the node types the mirror held
// when it did.
type pinnedEpoch struct {
	ep   *Epoch
	want map[int]string
}

// pinReaders pins the store's current epoch and starts n readers on it that
// run until stop closes. Each checks that Label answers exactly the epoch's
// node types: a node of the epoch keeps its type however soon a later update
// deletes it, a node of seen deleted before the pin has none, and neither has
// an ID an update after the pin inserts.
func pinReaders(t *testing.T, s *Store, m *mirror, seen map[int]string, n int, stop <-chan struct{}, wg *sync.WaitGroup) pinnedEpoch {
	p := pinnedEpoch{s.View(), maps.Clone(m.labels)}
	var gone []int
	for id := range seen {
		if _, ok := p.want[id]; !ok {
			gone = append(gone, id)
		}
	}
	next := p.ep.DB.MaxNodeID() + 1 // later inserts take IDs from here on
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				for id, typ := range p.want {
					if got, ok := p.ep.DB.Label(id); !ok || got != typ {
						t.Errorf("epoch %d: node %d labelled %q (%v), want %q", p.ep.Seq, id, got, ok, typ)
						return
					}
				}
				for _, id := range gone {
					if got, ok := p.ep.DB.Label(id); ok {
						t.Errorf("epoch %d: node %d, deleted before it, labelled %q", p.ep.Seq, id, got)
						return
					}
				}
				for id := next; id < next+200; id++ {
					if got, ok := p.ep.DB.Label(id); ok {
						t.Errorf("epoch %d: node %d, inserted after it, labelled %q", p.ep.Seq, id, got)
						return
					}
				}
				if nodes := p.ep.DB.NumNodes(); nodes != len(p.want) {
					t.Errorf("epoch %d holds %d nodes, want %d", p.ep.Seq, nodes, len(p.want))
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	return p
}

// checkPinned checks, once the writer is done, that a pinned epoch answers
// Label exactly for its own nodes among seen, and that it holds the newest
// database's Labels map: no update copied it.
func checkPinned(t *testing.T, p pinnedEpoch, seen map[int]string, newest *rdb.DB) {
	t.Helper()
	if reflect.ValueOf(p.ep.DB.Labels).Pointer() != reflect.ValueOf(newest.Labels).Pointer() {
		t.Fatalf("epoch %d holds a label map of its own; an update copied it", p.ep.Seq)
	}
	for id := range seen {
		got, ok := p.ep.DB.Label(id)
		if typ, live := p.want[id]; ok != live || got != typ {
			t.Errorf("after the burst, epoch %d: node %d labelled %q (%v), want %q (%v)", p.ep.Seq, id, got, ok, typ, live)
		}
	}
}

// TestPinnedEpochLabels: readers resolve the type of every node of an epoch
// pinned before a burst of inserts, deletes and text updates, and read that
// epoch's types throughout. Run it under -race: a type is a node-table column
// of the reader's epoch, while the writer updates the one Labels map every
// epoch shares in place, and the interner the types resolve through grows
// under the readers.
func TestPinnedEpochLabels(t *testing.T) {
	s, m := openSeeded(t, "", 37, 250, Config{})
	seen := maps.Clone(m.labels) // every node any epoch held
	stop := make(chan struct{})
	var wg sync.WaitGroup
	p := pinReaders(t, s, m, seen, 4, stop, &wg)
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 120; i++ {
		applyRandomOp(t, s, m, rng, i)
		maps.Copy(seen, m.labels)
	}
	close(stop)
	wg.Wait()
	checkPinned(t, p, seen, s.View().DB)
	deleted, inserted := 0, 0
	for id := range seen {
		_, then := p.want[id]
		_, now := m.labels[id]
		if then && !now {
			deleted++
		} else if now && !then {
			inserted++
		}
	}
	if deleted == 0 || inserted == 0 {
		t.Fatalf("the burst deleted %d of the pinned epoch's nodes and inserted %d", deleted, inserted)
	}
}

// TestPinnedEpochKeepsDeletedLabels: a delete drops the node's entry from the
// Labels map every epoch shares, but not its type from the epochs before.
// Readers pinned on the epoch before a burst of deletes and inserts, and on
// epochs in the middle of it, resolve exactly the nodes of their own epoch —
// the ones the burst deletes later included — and the newest epoch resolves
// none of the deleted ones.
func TestPinnedEpochKeepsDeletedLabels(t *testing.T) {
	s, m := openSeeded(t, "", 37, 250, Config{})
	dept := m.byLabel("dept")[0]
	seen := maps.Clone(m.labels) // every node any epoch held
	stop := make(chan struct{})
	var wg sync.WaitGroup
	pins := []pinnedEpoch{pinReaders(t, s, m, seen, 2, stop, &wg)}
	rng := rand.New(rand.NewSource(37))
	deletes := 0
	for i := 0; i < 90; i++ {
		if i%3 == 2 {
			insertBoth(t, s, m, dept, fragCourse(i))
		} else if victims := m.byLabel("course", "student", "project"); len(victims) > 0 {
			victim := victims[rng.Intn(len(victims))]
			if _, err := s.DeleteSubtree(victim); err != nil {
				t.Fatal(err)
			}
			m.deleteSubtree(victim)
			deletes++
		}
		maps.Copy(seen, m.labels)
		if i%30 == 13 {
			pins = append(pins, pinReaders(t, s, m, seen, 2, stop, &wg))
		}
	}
	close(stop)
	wg.Wait()
	newest := s.View().DB
	kept := make([]int, len(pins)) // per pinned epoch, its nodes the burst deleted later
	for i, p := range pins {
		checkPinned(t, p, seen, newest)
		for id := range p.want {
			if _, live := m.labels[id]; !live {
				kept[i]++
			}
		}
	}
	// A later delete may take only nodes inserted after a mid-burst pin, so
	// the first pin and at least one mid-burst pin must hold deleted nodes.
	mid := 0
	for _, k := range kept[1:] {
		if k > 0 {
			mid++
		}
	}
	if deletes < 30 || len(pins) != 4 || kept[0] == 0 || mid == 0 {
		t.Fatalf("the burst deleted %d subtrees; the %d pinned epochs hold %v nodes deleted after their pin", deletes, len(pins), kept)
	}
	checkPinned(t, pinnedEpoch{s.View(), m.labels}, seen, newest)
}

// TestLabelsMapIsTheNewestEpochs: the Labels map, which every epoch shares and
// only the writer touches, holds exactly the live nodes this store's inserts
// wrote, each with its type — nothing of the bulk-loaded seed — after every
// step of a random walk of inserts, deletes and text updates; and a store
// reopened from a checkpoint and the WAL after it holds exactly the live nodes
// its replay inserted. This is what the benchmark's write-mixed check reads
// once a run is quiet: every acknowledged insert of the running store.
func TestLabelsMapIsTheNewestEpochs(t *testing.T) {
	dir := t.TempDir()
	s, m := openSeeded(t, dir, 37, 250, Config{Fsync: FsyncNever})
	check := func(step string, db *rdb.DB, inserted map[int]bool) {
		t.Helper()
		if len(db.Labels) != len(inserted) || db.NumNodes() != len(m.labels) {
			t.Fatalf("%s: %d label entries and %d nodes; the store inserted %d live nodes, the mirror holds %d", step, len(db.Labels), db.NumNodes(), len(inserted), len(m.labels))
		}
		for id := range inserted {
			if sym, ok := db.Labels[id]; !ok || db.Syms.Str(sym) != m.labels[id] {
				t.Fatalf("%s: node %d has label entry %q (%v), want %q", step, id, db.Syms.Str(sym), ok, m.labels[id])
			}
		}
	}
	// live and replayed track the live nodes inserted since the open and since
	// the checkpoint, the ones the reopened store replays.
	live, replayed := map[int]bool{}, map[int]bool{}
	before := maps.Clone(m.labels)
	track := func() {
		for id := range m.labels {
			if _, was := before[id]; !was {
				live[id], replayed[id] = true, true
			}
		}
		for _, set := range []map[int]bool{live, replayed} {
			for id := range set {
				if _, ok := m.labels[id]; !ok {
					delete(set, id)
				}
			}
		}
		before = maps.Clone(m.labels)
	}
	checkpoint := func() {
		if _, err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		clear(replayed)
	}
	check("open", s.View().DB, live)
	dept := m.byLabel("dept")[0]
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 200; i++ {
		applyRandomOp(t, s, m, rng, i)
		track()
		check(fmt.Sprintf("update %d", i), s.View().DB, live)
		if i == 99 {
			checkpoint()
		}
	}
	// The walk's deletes may leave no inserted node standing: a course
	// inserted before the last checkpoint and one after it give the reopened
	// store a node it loads from the snapshot and one it replays.
	insertBoth(t, s, m, dept, fragCourse(200))
	track()
	checkpoint()
	insertBoth(t, s, m, dept, fragCourse(201))
	track()
	check("last insert", s.View().DB, live)
	if len(replayed) == 0 || len(live) <= len(replayed) {
		t.Fatalf("the walk left %d inserted nodes, %d of them after the checkpoint: nothing to tell the two apart", len(live), len(replayed))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(Config{DTD: workload.Dept(), Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	check("reopened", r.View().DB, replayed)
	t.Logf("%d nodes of the seed left; %d live inserted nodes, %d of them replayed", r.View().DB.NumNodes()-len(live), len(live), len(replayed))
}

func TestEpochIsolation(t *testing.T) {
	s, m := openSeeded(t, "", 5, 200, Config{})
	d := workload.Dept()
	dept := m.byLabel("dept")[0]

	old := s.View()
	oldAns := answers(t, old.DB, d, "dept//course", core.StrategyCycleEX)
	oldScoped := scopedAnswers(t, old.DB, d, "dept//course", dept)
	oldNodes := old.DB.NumNodes()
	oldLabels := map[int]rdb.NodeInterval{}
	old.DB.EachNode(func(id int) { oldLabels[id], _ = old.DB.Interval(id) })

	// The first insert into a densely loaded store relabels the whole
	// database for the new epoch; the pinned one must not see any of it.
	res, err := s.InsertSubtree(dept, fragCourse(1))
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	if st := s.Stats(); st.Relabels != 1 || st.RelabelledNodes != st.Nodes {
		t.Fatalf("%d relabels of %d labels, want one of all %d", st.Relabels, st.RelabelledNodes, st.Nodes)
	}
	cur := s.View()
	if cur.Seq != old.Seq+1 || cur == old {
		t.Fatalf("epoch not advanced: %d -> %d", old.Seq, cur.Seq)
	}
	if got := old.DB.NumNodes(); got != oldNodes {
		t.Fatalf("pinned epoch mutated: %d -> %d nodes", oldNodes, got)
	}
	if got := answers(t, old.DB, d, "dept//course", core.StrategyCycleEX); fmt.Sprint(got) != fmt.Sprint(oldAns) {
		t.Fatalf("pinned epoch answers changed: %v -> %v", oldAns, got)
	}
	if got := scopedAnswers(t, old.DB, d, "dept//course", dept); fmt.Sprint(got) != fmt.Sprint(oldScoped) || fmt.Sprint(got) != fmt.Sprint(oldAns) {
		t.Fatalf("pinned epoch scoped answers changed: %v -> %v (unscoped %v)", oldScoped, got, oldAns)
	}
	moved := 0
	for id, was := range oldLabels {
		if iv, ok := old.DB.Interval(id); !ok || iv != was {
			t.Fatalf("pinned epoch label of node %d changed: %+v -> %+v", id, was, iv)
		}
		if iv, _ := cur.DB.Interval(id); iv != was {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("the relabel moved no label in the new epoch: the test pins nothing")
	}
	newAns := answers(t, cur.DB, d, "dept//course", core.StrategyCycleEX)
	if len(newAns) != len(oldAns)+1 {
		t.Fatalf("new epoch misses the insert: %d -> %d answers", len(oldAns), len(newAns))
	}
	found := false
	for _, id := range newAns {
		if id == res.NodeID {
			found = true
		}
	}
	if !found {
		t.Fatalf("inserted course %d not in new epoch answers %v", res.NodeID, newAns)
	}
	// Published relations must be tombstone-free (the executor invariant).
	if _, err := s.DeleteSubtree(res.NodeID); err != nil {
		t.Fatalf("delete: %v", err)
	}
	for name, rel := range s.View().DB.Rels {
		if rel.Tombstones() != 0 {
			t.Errorf("published relation %s has %d tombstones", name, rel.Tombstones())
		}
	}

	// The catalog is shared by chunk between epochs. An epoch pinned now keeps
	// its own parents and values while later updates rewrite the values of the
	// nodes it holds, delete them, and insert beside them — read all the while
	// by concurrent readers, so -race sees any write to a shared chunk.
	course, err := s.InsertSubtree(dept, fragCourse(2))
	if err != nil {
		t.Fatal(err)
	}
	pin := s.View().DB
	type entry struct {
		parent int
		val    string
	}
	pinned := map[int]entry{}
	pin.EachNode(func(id int) { pinned[id] = entry{pin.Parent(id), pin.Val(id)} })
	pinNodes, pinMax := pin.NumNodes(), pin.MaxNodeID()
	if len(pinned) != pinNodes || pinMax != course.NodeID+course.Nodes-1 {
		t.Fatalf("pinned epoch: %d nodes visited of %d, max ID %d", len(pinned), pinNodes, pinMax)
	}
	check := func() {
		if pin.NumNodes() != pinNodes || pin.MaxNodeID() != pinMax {
			t.Errorf("pinned epoch now has %d nodes up to %d, had %d up to %d", pin.NumNodes(), pin.MaxNodeID(), pinNodes, pinMax)
		}
		for id, was := range pinned {
			if !pin.HasNode(id) || pin.Parent(id) != was.parent || pin.Val(id) != was.val {
				t.Errorf("pinned node %d: present %v, parent %d, value %q; was parent %d, value %q",
					id, pin.HasNode(id), pin.Parent(id), pin.Val(id), was.parent, was.val)
				return
			}
		}
		if pin.HasNode(pinMax+1) || pin.HasNode(0) {
			t.Errorf("pinned epoch holds a node it never stored")
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					check()
				}
			}
		}()
	}
	for id := range pinned {
		if _, err := s.UpdateText(id, fmt.Sprintf("rewritten-%d", id)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		if _, err := s.InsertSubtree(dept, fragCourse(10+i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.DeleteSubtree(course.NodeID); err != nil {
		t.Fatal(err)
	}
	for _, id := range m.children[dept] { // the seed's top-level courses
		if _, err := s.DeleteSubtree(id); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	check()
	now := s.View().DB
	if now.HasNode(course.NodeID) || now.Val(course.NodeID+1) != "" || now.NumNodes() >= pinNodes+20*course.Nodes {
		t.Fatalf("the newest epoch still holds what was deleted: %d nodes", now.NumNodes())
	}
	if got := now.Val(dept); got != fmt.Sprintf("rewritten-%d", dept) {
		t.Fatalf("the newest epoch lost a text update: dept value %q", got)
	}
}

// TestCrashRecovery kills the store after unsynced updates and checks the
// reopened store is byte-identical, including after a mid-stream checkpoint
// and with a torn tail appended to the last WAL segment.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	d := workload.Dept()
	s, m := openSeeded(t, dir, 12, 250, Config{Fsync: FsyncNever})
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 25; i++ {
		applyRandomOp(t, s, m, rng, i)
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	for i := 25; i < 50; i++ {
		applyRandomOp(t, s, m, rng, i)
	}
	want := saveBytes(t, s.View().DB)
	wantAns := answers(t, s.View().DB, d, "dept//course", core.StrategyCycleEX)
	wantLSN := s.View().LSN
	s.crash()

	// A torn tail: garbage after the last intact record must be discarded.
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments: %v", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1].path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x13, 0x37, 0xff}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := Open(Config{DTD: d, Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer r.Close()
	if got := saveBytes(t, r.View().DB); !bytes.Equal(got, want) {
		t.Fatalf("recovered state differs from pre-crash state (%d vs %d bytes)", len(got), len(want))
	}
	if got := answers(t, r.View().DB, d, "dept//course", core.StrategyCycleEX); fmt.Sprint(got) != fmt.Sprint(wantAns) {
		t.Fatalf("recovered answers differ: %v vs %v", got, wantAns)
	}
	if r.View().LSN != wantLSN {
		t.Fatalf("recovered LSN %d, want %d", r.View().LSN, wantLSN)
	}
	if st := r.Stats(); st.Replayed == 0 {
		t.Fatal("recovery replayed no WAL records despite post-checkpoint updates")
	}

	// Updates after recovery must continue the deterministic ID sequence:
	// a second recovery round-trips again.
	mm := newMirror()
	for id, l := range m.labels {
		mm.add(id, m.parent[id], l, m.vals[id])
	}
	for i := 50; i < 60; i++ {
		applyRandomOp(t, r, mm, rng, i)
	}
	want2 := saveBytes(t, r.View().DB)
	r.crash()
	r2, err := Open(Config{DTD: d, Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("second recover: %v", err)
	}
	defer r2.Close()
	if got := saveBytes(t, r2.View().DB); !bytes.Equal(got, want2) {
		t.Fatal("second recovery differs from pre-crash state")
	}
	if got := saveBytes(t, mm.buildDB(d)); !bytes.Equal(got, want2) {
		t.Fatal("recovered store diverges from re-shredded mirror")
	}
}

func TestCheckpointRotatesAndGCs(t *testing.T) {
	dir := t.TempDir()
	s, m := openSeeded(t, dir, 15, 150, Config{Fsync: FsyncNever})
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 10; i++ {
		applyRandomOp(t, s, m, rng, i)
	}
	info, err := s.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if info.LSN != s.View().LSN {
		t.Fatalf("checkpoint LSN %d, view LSN %d", info.LSN, s.View().LSN)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		if seg.start <= info.LSN {
			t.Errorf("segment %s not garbage-collected (covered by snapshot at %d)", seg.path, info.LSN)
		}
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.rdb"))
	if len(snaps) != 1 {
		t.Fatalf("want exactly one snapshot after GC, got %v", snaps)
	}
	// Recovery from snapshot alone (no WAL records past it).
	s.crash()
	r, err := Open(Config{DTD: workload.Dept(), Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer r.Close()
	if got, want := saveBytes(t, r.View().DB), saveBytes(t, m.buildDB(workload.Dept())); !bytes.Equal(got, want) {
		t.Fatal("snapshot-only recovery diverges from mirror")
	}
	if st := r.Stats(); st.Replayed != 0 {
		t.Fatalf("snapshot-only recovery replayed %d records, want 0", st.Replayed)
	}
}

func TestSnapshotBoot(t *testing.T) {
	dirA := t.TempDir()
	s, m := openSeeded(t, dirA, 17, 150, Config{Fsync: FsyncNever})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 8; i++ {
		applyRandomOp(t, s, m, rng, i)
	}
	info, err := s.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	want := saveBytes(t, s.View().DB)

	dirB := t.TempDir()
	b, err := Open(Config{DTD: workload.Dept(), SnapshotPath: info.Path, Dir: dirB, Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("boot from snapshot: %v", err)
	}
	defer b.Close()
	if got := saveBytes(t, b.View().DB); !bytes.Equal(got, want) {
		t.Fatal("snapshot boot diverges from source store")
	}
	// The new directory must be self-contained: a snapshot was written.
	if ok, _ := hasSnapshot(dirB); !ok {
		t.Fatal("snapshot boot left the new WAL directory without a snapshot")
	}
	// The booted store must continue the ID sequence without collisions.
	dept := m.byLabel("dept")[0]
	res, err := b.InsertSubtree(dept, fragCourse(99))
	if err != nil {
		t.Fatalf("insert after boot: %v", err)
	}
	if _, taken := m.labels[res.NodeID]; taken {
		t.Fatalf("booted store reused live node ID %d", res.NodeID)
	}
}

func TestAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, m := openSeeded(t, dir, 19, 150, Config{Fsync: FsyncNever, CheckpointEvery: 5})
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 12; i++ {
		applyRandomOp(t, s, m, rng, i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s.Stats().Checkpoints >= 2 { // boot snapshot + at least one automatic
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no automatic checkpoint after 12 updates with CheckpointEvery=5 (checkpoints=%d)", s.Stats().Checkpoints)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAutoCheckpointFailure: an automatic checkpoint that cannot write its
// snapshot — here a directory sits at the snapshot's path — is counted, the
// store stays writable, and a checkpoint succeeds once the path is cleared.
// Everything applied comes back from the directory.
func TestAutoCheckpointFailure(t *testing.T) {
	dir := t.TempDir()
	const every = 5
	s, m := openSeeded(t, dir, 19, 150, Config{Fsync: FsyncNever, CheckpointEvery: every})
	rng := rand.New(rand.NewSource(4))
	update := func(k int) {
		for !applyRandomOp(t, s, m, rng, k) {
		}
	}
	for i := 0; i < every-1; i++ {
		update(i)
	}
	// The next update triggers the checkpoint, of the epoch it publishes.
	blocker := filepath.Join(dir, snapName(s.View().LSN+1))
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	update(every)
	for deadline := time.Now().Add(5 * time.Second); s.Stats().CheckpointFailures == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the automatic checkpoint's failure was not counted")
		}
	}
	if st := s.Stats(); st.CheckpointFailures != 1 || st.Checkpoints != 1 {
		t.Fatalf("%d checkpoint failures and %d checkpoints, want 1 and the boot snapshot's 1", st.CheckpointFailures, st.Checkpoints)
	}
	if _, err := s.Checkpoint(); err == nil {
		t.Fatal("a checkpoint onto the directory succeeded")
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after clearing the path: %v", err)
	}
	for i := 0; i < 3; i++ {
		update(every + 1 + i)
	}
	if st := s.Stats(); st.CheckpointFailures != 1 || st.Checkpoints != 2 {
		t.Fatalf("%d checkpoint failures and %d checkpoints, want 1 and 2", st.CheckpointFailures, st.Checkpoints)
	}
	want := saveBytes(t, s.View().DB)
	s.Close()
	r, err := Open(Config{DTD: workload.Dept(), Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !bytes.Equal(saveBytes(t, r.View().DB), want) || !bytes.Equal(want, saveBytes(t, m.buildDB(workload.Dept()))) {
		t.Fatal("the reopened store diverges from the one closed")
	}
}

// TestConcurrentReaders hammers the store with a writer and several readers;
// under -race this verifies epoch publication is safe, and each reader
// checks the epoch-consistency invariant (catalog size equals total live
// tuples — an in-progress update would break it).
func TestConcurrentReaders(t *testing.T) {
	s, m := openSeeded(t, "", 23, 250, Config{})
	d := workload.Dept()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var lastSeq uint64
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ep := s.View()
				if ep.Seq < lastSeq {
					t.Errorf("epoch sequence went backwards: %d after %d", ep.Seq, lastSeq)
					return
				}
				lastSeq = ep.Seq
				total := 0
				for _, rel := range ep.DB.Rels {
					if rel.Tombstones() != 0 {
						t.Errorf("reader saw tombstones in published relation %s", rel.Name)
						return
					}
					total += rel.Len()
				}
				if total != ep.DB.NumNodes() {
					t.Errorf("epoch %d inconsistent: %d tuples vs %d catalog nodes", ep.Seq, total, ep.DB.NumNodes())
					return
				}
				if i%7 == 0 {
					ids := answers(t, ep.DB, d, "dept//course", core.StrategyCycleEX)
					for _, id := range ids {
						if typ, _ := ep.DB.Label(id); typ != "course" {
							t.Errorf("epoch %d: answer %d is %q", ep.Seq, id, typ)
							return
						}
					}
				}
			}
		}(w)
	}
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 150; i++ {
		applyRandomOp(t, s, m, rng, i)
	}
	close(stop)
	wg.Wait()
	if got, want := saveBytes(t, s.View().DB), saveBytes(t, m.buildDB(d)); !bytes.Equal(got, want) {
		t.Fatal("final state diverges from mirror after concurrent run")
	}
}

func TestWALTornAndCorruptFrames(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal-1.log")
	w, err := openWALWriter(path, FsyncNever, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int
	for i := 1; i <= 3; i++ {
		n, err := w.append(walRecord{LSN: uint64(i), Op: opUpdateText, Node: i, Value: "v"})
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, n)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	read := func() (recs []uint64, off int64, torn bool) {
		off, torn, err := readSegment(path, func(r walRecord) error {
			recs = append(recs, r.LSN)
			return nil
		})
		if err != nil {
			t.Fatalf("readSegment: %v", err)
		}
		return recs, off, torn
	}
	recs, off, torn := read()
	if fmt.Sprint(recs) != "[1 2 3]" || torn {
		t.Fatalf("clean read: recs=%v torn=%v", recs, torn)
	}
	if off != int64(sizes[0]+sizes[1]+sizes[2]) {
		t.Fatalf("offset %d, want %d", off, sizes[0]+sizes[1]+sizes[2])
	}

	// Truncate mid-frame: last record torn, first two intact.
	if err := os.Truncate(path, int64(sizes[0]+sizes[1]+3)); err != nil {
		t.Fatal(err)
	}
	recs, off, torn = read()
	if fmt.Sprint(recs) != "[1 2]" || !torn || off != int64(sizes[0]+sizes[1]) {
		t.Fatalf("torn read: recs=%v torn=%v off=%d", recs, torn, off)
	}

	// Flip a payload byte of record 2: CRC fails, record 1 survives.
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{'X'}, int64(sizes[0]+walFrameHeader+2)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	recs, off, torn = read()
	if fmt.Sprint(recs) != "[1]" || !torn || off != int64(sizes[0]) {
		t.Fatalf("corrupt read: recs=%v torn=%v off=%d", recs, torn, off)
	}
}

func TestFsyncPolicyParsing(t *testing.T) {
	for _, ok := range []string{"always", "interval", "never"} {
		if _, err := ParseFsyncPolicy(ok); err != nil {
			t.Errorf("ParseFsyncPolicy(%q): %v", ok, err)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("ParseFsyncPolicy accepted an unknown policy")
	}
	if _, err := Open(Config{DTD: workload.Dept(), Seed: rdb.NewDB(), Fsync: "bogus"}); err == nil {
		t.Error("Open accepted an unknown fsync policy")
	}
}
