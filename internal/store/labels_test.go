package store

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"xpath2sql/internal/backend"
	"xpath2sql/internal/core"
	"xpath2sql/internal/dtd"
	"xpath2sql/internal/rdb"
	"xpath2sql/internal/shred"
	"xpath2sql/internal/workload"
	"xpath2sql/internal/xmltree"
	"xpath2sql/internal/xpath"
)

// Tests of the interval labels a live store carries: what an update writes,
// what happens when the slack runs out, and that neither shows in an answer,
// a pinned epoch or a saved image.

// openCourses opens an ephemeral store over a dept document of the given
// number of courses, 21 elements each, with its mirror.
func openCourses(t *testing.T, courses int) (*Store, *mirror) {
	t.Helper()
	return openCoursesWith(t, courses, Config{})
}

func openCoursesWith(t *testing.T, courses int, cfg Config) (*Store, *mirror) {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<dept>")
	for c := 0; c < courses; c++ {
		fmt.Fprintf(&sb, "<course><cno>c%d</cno><title>t%d</title><prereq></prereq><takenBy>", c, c)
		for k := 0; k < 3; k++ {
			fmt.Fprintf(&sb, "<student><sno>s%d-%d</sno><name>n</name><qualified></qualified></student>", c, k)
		}
		fmt.Fprintf(&sb, "</takenBy><project><pno>p%d</pno><ptitle>pt</ptitle><required></required></project></course>", c)
	}
	sb.WriteString("</dept>")
	doc, err := xmltree.Parse(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	d := workload.Dept()
	db, err := shred.Shred(doc, d)
	if err != nil {
		t.Fatal(err)
	}
	m := newMirror()
	m.insert(1, 0, doc)
	cfg.DTD, cfg.Seed = d, db
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, m
}

// insertBoth inserts the fragment into the store and the mirror.
func insertBoth(t *testing.T, s *Store, m *mirror, parent int, frag string) UpdateResult {
	t.Helper()
	res, err := s.InsertSubtree(parent, frag)
	if err != nil {
		t.Fatalf("insert under %d: %v", parent, err)
	}
	doc, err := xmltree.Parse(frag)
	if err != nil {
		t.Fatal(err)
	}
	m.insert(res.NodeID, parent, doc)
	return res
}

// Offsets of a fragCourse's prereq and takenBy from the course's own ID.
const (
	coursePrereq  = 3
	courseTakenBy = 4
)

// TestLabelWritesAreTheInsertsOwn is the counted test of "a write costs what
// it touches" for interval labels: after the one relabel that gives a densely
// loaded database its slack, a stream of root appends with interleaved
// deletes and a create-then-fill stream write a bounded number of labels per
// inserted node — the same bound at 1×, 4× and 16× the database size — and
// never relabel the database again.
func TestLabelWritesAreTheInsertsOwn(t *testing.T) {
	const perInsertedNode = 2 // labels written per node inserted, relabels included
	for _, scale := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("%dx", scale), func(t *testing.T) {
			s, m := openCourses(t, 20*scale)
			dept := m.byLabel("dept")[0]
			insertBoth(t, s, m, dept, fragCourse(-1))
			if st := s.Stats(); st.Relabels != 1 || st.RelabelledNodes != st.Nodes {
				t.Fatalf("the first insert into a dense store: %d relabels of %d labels, want 1 of all %d", st.Relabels, st.RelabelledNodes, st.Nodes)
			}
			base := s.Stats()
			inserted := int64(0)
			insert := func(parent int, frag string) int {
				before := s.Stats()
				res := insertBoth(t, s, m, parent, frag)
				inserted += int64(res.Nodes)
				if moved := s.Stats().RelabelledNodes - before.RelabelledNodes; moved >= before.Nodes {
					t.Fatalf("insert under %d relabelled the database again (%d labels, %d nodes)", parent, moved, before.Nodes)
				}
				return res.NodeID
			}
			// Root appends, every third followed by the delete of an earlier one.
			var mine []int
			for i := 0; i < 150; i++ {
				mine = append(mine, insert(dept, fragCourse(i)))
				if i%3 == 2 {
					victim := mine[len(mine)/2]
					mine = append(mine[:len(mine)/2], mine[len(mine)/2+1:]...)
					if _, err := s.DeleteSubtree(victim); err != nil {
						t.Fatal(err)
					}
					m.deleteSubtree(victim)
				}
			}
			// Create, then fill: a course, then 40 students one at a time.
			for c := 0; c < 5; c++ {
				takenBy := insert(dept, fragCourse(1000+c)) + courseTakenBy
				for k := 0; k < 40; k++ {
					insert(takenBy, fragStudent(100*c+k))
				}
			}
			st := s.Stats()
			written := inserted + st.RelabelledNodes - base.RelabelledNodes
			t.Logf("%d nodes: %d inserted, %d labels written, %d relabels", st.Nodes, inserted, written, st.Relabels-base.Relabels)
			if written > perInsertedNode*inserted {
				t.Errorf("%d labels written for %d inserted nodes, want at most %d each", written, inserted, perInsertedNode)
			}
			if got, want := saveBytes(t, s.View().DB), saveBytes(t, m.buildDB(workload.Dept())); !bytes.Equal(got, want) {
				t.Fatal("store diverges from the re-shredded mirror")
			}
		})
	}
}

// TestCatalogWritesAreTheUpdatesOwn is the counted test of "a write costs what
// it touches" for the node catalog and the column indexes. The same stream of
// root appends, deletes and text updates, given the same node IDs by a common
// allocator floor, copies the same node-table chunks update for update at 1×,
// 4× and 16× the database; no update copies a label entry: every epoch keeps
// the very Labels map of the epoch before it, and a node's type is written in
// the chunks the update copies anyway; the relations the updates cloned and
// compacted carry their indexes, never building one; and no relation holds a
// pair set, so no Clone copies one.
func TestCatalogWritesAreTheUpdatesOwn(t *testing.T) {
	const floor = 1 << 20 // above every scale's seed, on a chunk boundary
	labelsOf := func(db *rdb.DB) uintptr { return reflect.ValueOf(db.Labels).Pointer() }
	var streams [][]int64
	for _, scale := range []int{1, 4, 16} {
		s, m := openCoursesWith(t, 20*scale, Config{MinNextID: floor})
		dept := m.byLabel("dept")[0]
		leaves := m.byLabel("cno")
		insertBoth(t, s, m, dept, fragCourse(-1)) // the one relabel, which copies every chunk
		warm := map[string]*rdb.Relation{}
		for name, rel := range s.View().DB.Rels {
			rel.ByF(0)
			rel.ByT(0)
			warm[name] = rel
		}
		var copied []int64
		// count runs one update and returns the chunks it copied.
		count := func(op string, update func()) int64 {
			before, prev := s.Stats(), s.View().DB
			update()
			after, now := s.Stats(), s.View().DB
			n := after.CatalogChunksCopied - before.CatalogChunksCopied
			copied = append(copied, n)
			if labelsOf(now) != labelsOf(prev) {
				t.Fatalf("%dx: update %d (%s) replaced the label map; want the epoch before's", scale, len(copied), op)
			}
			// A stored relation holds no pair set, so the Clone an update
			// makes of one copies no set bytes.
			for name, rel := range now.Rels {
				if b := rel.PairSetBytes(); b != 0 {
					t.Fatalf("%dx: update %d left %s holding a %d-byte pair set, which the next update's Clone copies", scale, len(copied), name, b)
				}
			}
			return n
		}
		var mine []int
		for i := 0; i < 240; i++ {
			count("insert", func() { mine = append(mine, insertBoth(t, s, m, dept, fragCourse(i)).NodeID) })
			if i%3 == 2 {
				victim := mine[len(mine)/2]
				mine = append(mine[:len(mine)/2], mine[len(mine)/2+1:]...)
				count("delete", func() {
					if _, err := s.DeleteSubtree(victim); err != nil {
						t.Fatal(err)
					}
					m.deleteSubtree(victim)
				})
			}
			// A text update, of a node the seed stored or one the stream did.
			node := leaves[i%len(leaves)]
			if i%2 == 1 {
				node = mine[len(mine)-1] + 1
			}
			if n := count("text", func() {
				if _, err := s.UpdateText(node, fmt.Sprintf("v%d", i)); err != nil {
					t.Fatal(err)
				}
				m.vals[node] = fmt.Sprintf("v%d", i)
			}); n != 1 {
				t.Fatalf("%dx: text update %d copied %d chunks, want one", scale, i, n)
			}
		}
		streams = append(streams, copied)
		if st := s.Stats(); st.Relabels != 1 {
			t.Fatalf("%dx: %d relabels, want only the first insert's", scale, st.Relabels)
		}
		cloned := 0
		for name, rel := range s.View().DB.Rels {
			if rel == warm[name] {
				continue // never written: its builds are the warm-up's
			}
			cloned++
			rel.ByF(dept)
			rel.ByT(dept)
			if n := rel.IndexBuilds(); n != 0 {
				t.Errorf("%dx: %s built %d indexes after the updates cloned and compacted it; want them carried", scale, name, n)
			}
		}
		if cloned != 5 {
			t.Errorf("%dx: the updates cloned %d relations, a fragCourse has elements of 5 types", scale, cloned)
		}
		if got, want := saveBytes(t, s.View().DB), saveBytes(t, m.buildDB(workload.Dept())); !bytes.Equal(got, want) {
			t.Fatalf("%dx: store diverges from the re-shredded mirror", scale)
		}
	}
	for i, stream := range streams[1:] {
		if !slices.Equal(stream, streams[0]) {
			t.Errorf("chunks copied per update differ between 1x and %dx the database:\n%v\n%v", []int{4, 16}[i], streams[0], stream)
		}
	}
	total := int64(0)
	for _, n := range streams[0] {
		total += n
	}
	t.Logf("%d updates copied %d chunks at every scale", len(streams[0]), total)
}

// TestUpdatesCopyRowsOnce is the counted test of an update's relation writes,
// at 1×, 4× and 16× the database: every relation an update publishes
// allocated one row array, its Clone's. An insert appends to the clone, a text
// update rewrites one of its rows, and a delete filters it in place, where
// compacting into a second array would make two. No update changes the epoch
// before it.
func TestUpdatesCopyRowsOnce(t *testing.T) {
	for _, scale := range []int{1, 4, 16} {
		s, m := openCourses(t, 20*scale)
		dept := m.byLabel("dept")[0]
		courses := m.byLabel("course")
		// check runs one update and checks the relations it wrote.
		check := func(op string, wrote int, update func()) {
			prev := s.View().DB
			image := saveBytes(t, prev)
			update()
			touched := 0
			for name, rel := range s.View().DB.Rels {
				if rel == prev.Rels[name] {
					continue
				}
				touched++
				if n := rel.RowCopies(); n != 1 {
					t.Errorf("%dx: %s: %s allocated %d row arrays, want one", scale, op, name, n)
				}
			}
			if touched != wrote {
				t.Fatalf("%dx: %s wrote %d relations, want %d", scale, op, touched, wrote)
			}
			if !bytes.Equal(image, saveBytes(t, prev)) {
				t.Fatalf("%dx: %s changed the epoch before it", scale, op)
			}
		}
		for i := 0; i < 5; i++ {
			// A fragCourse has elements of 5 types, a seeded course of 13.
			check("insert", 5, func() { insertBoth(t, s, m, dept, fragCourse(i)) })
			node := m.byLabel("cno")[i]
			check("text update", 1, func() {
				if _, err := s.UpdateText(node, fmt.Sprintf("v%d", i)); err != nil {
					t.Fatal(err)
				}
				m.vals[node] = fmt.Sprintf("v%d", i)
			})
			victim := courses[i*len(courses)/5]
			check("delete", 13, func() {
				if _, err := s.DeleteSubtree(victim); err != nil {
					t.Fatal(err)
				}
				m.deleteSubtree(victim)
			})
		}
		if got, want := saveBytes(t, s.View().DB), saveBytes(t, m.buildDB(workload.Dept())); !bytes.Equal(got, want) {
			t.Fatalf("%dx: store diverges from the re-shredded mirror", scale)
		}
	}
}

// document rebuilds the mirrored document as a tree, children in node-ID
// order, and lists the store's node IDs in the tree's preorder: the native
// evaluator answers with positions in that list.
func (m *mirror) document() (*xmltree.Document, []int) {
	var order []int
	var build func(id int) *xmltree.Node
	build = func(id int) *xmltree.Node {
		order = append(order, id)
		n := &xmltree.Node{Label: m.labels[id], Val: m.vals[id]}
		for _, c := range m.children[id] { // appended in ID order, deletes keep it
			n.Children = append(n.Children, build(c))
		}
		return n
	}
	return xmltree.NewDocument(build(m.children[0][0])), order
}

// checkAgainstOracle runs the differential queries on the store's current
// epoch with the interval kernel allowed and with it mandatory, and compares
// both with the native evaluator on the mirrored document.
func checkAgainstOracle(t *testing.T, step string, s *Store, m *mirror, d *dtd.DTD) {
	t.Helper()
	doc, order := m.document()
	db := s.View().DB
	for _, qs := range diffQueries {
		q, err := xpath.Parse(qs)
		if err != nil {
			t.Fatal(err)
		}
		var want []int
		for _, id := range xpath.EvalDoc(q, doc).IDs() {
			want = append(want, order[id-1])
		}
		sort.Ints(want)
		res, err := core.Translate(q, d, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []rdb.IntervalMode{rdb.IntervalAuto, rdb.IntervalForce} {
			ex := rdb.NewExec(db)
			ex.IntervalMode = mode
			rel, err := ex.Run(res.Program)
			if err != nil {
				t.Fatalf("%s: %q (intervals %v): %v", step, qs, mode, err)
			}
			if got := rel.AnswerIDs(); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: %q (intervals %v): store %v, native evaluator %v", step, qs, mode, got, want)
			}
		}
	}
}

// TestLabelExhaustion drives the two shapes that use slack up — a chain, each
// course inserted under the previous one's prereq, and a hot spot, students
// appended to one takenBy at the chain's end where the labels are scarcest —
// through relabel after relabel. Answers must stay the native evaluator's and
// the image the re-shredded mirror's throughout.
func TestLabelExhaustion(t *testing.T) {
	d := workload.Dept()
	s, m := openSeeded(t, "", 5, 200, Config{})
	check := func(step string) {
		t.Helper()
		if got, want := saveBytes(t, s.View().DB), saveBytes(t, m.buildDB(d)); !bytes.Equal(got, want) {
			t.Fatalf("%s: store diverges from the re-shredded mirror", step)
		}
		checkAgainstOracle(t, step, s, m, d)
	}
	course := insertBoth(t, s, m, m.byLabel("prereq")[0], fragCourse(0)).NodeID
	for depth := 1; depth < 300; depth++ {
		course = insertBoth(t, s, m, course+coursePrereq, fragCourse(depth)).NodeID
		if depth%60 == 0 {
			check(fmt.Sprintf("chain depth %d", depth))
		}
	}
	chain := s.Stats()
	if chain.Relabels < 10 {
		t.Errorf("a 300-deep chain forced %d relabels; it does not exhaust anything", chain.Relabels)
	}
	for k := 0; k < 300; k++ {
		insertBoth(t, s, m, course+courseTakenBy, fragStudent(k))
		if k%100 == 99 {
			check(fmt.Sprintf("hot spot append %d", k))
		}
	}
	spot := s.Stats()
	if spot.Relabels == chain.Relabels {
		t.Error("300 appends under the deepest course forced no relabel")
	}
	t.Logf("chain: %d relabels of %d labels; hot spot: %d of %d; %d nodes", chain.Relabels, chain.RelabelledNodes,
		spot.Relabels-chain.Relabels, spot.RelabelledNodes-chain.RelabelledNodes, spot.Nodes)
}

// scopedAnswers runs the query scoped to one document.
func scopedAnswers(t *testing.T, db *rdb.DB, d *dtd.DTD, query string, doc int) []int {
	t.Helper()
	q, err := xpath.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Translate(q, d, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ans, err := backend.AdoptDB(db, 0).Execute(context.Background(), res.Program, backend.ExecOptions{Doc: doc})
	if err != nil {
		t.Fatalf("scoped %q: %v", query, err)
	}
	return ans.IDs
}

// TestCanonicalImage: the saved image does not show the slack. A gapped
// store saves the bytes a dense relabel of the same database saves, and
// loading that image and saving it again is the identity.
func TestCanonicalImage(t *testing.T) {
	s, m := openSeeded(t, "", 29, 250, Config{})
	dept := m.byLabel("dept")[0]
	for i := 0; i < 40; i++ {
		insertBoth(t, s, m, dept, fragCourse(i))
	}
	db := s.View().DB
	if iv, _ := db.Interval(dept); iv.End-iv.Begin == int64(db.NumNodes()) {
		t.Fatalf("the store's labels are dense (%+v for %d nodes): nothing to canonicalize", iv, db.NumNodes())
	}
	gapped := saveBytes(t, db)
	dense := db.Derive()
	dense.RebuildIntervals()
	if iv, _ := dense.Interval(dept); iv.End-iv.Begin != int64(db.NumNodes()) {
		t.Fatalf("RebuildIntervals is not dense: %+v for %d nodes", iv, db.NumNodes())
	}
	if !bytes.Equal(gapped, saveBytes(t, dense)) {
		t.Fatal("a gapped store and its dense relabel save different images")
	}
	loaded, err := rdb.Load(bytes.NewReader(gapped))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gapped, saveBytes(t, loaded)) {
		t.Fatal("Load∘Save is not the identity on a v2 image")
	}
}

var updateImage = flag.Bool("update", false, "rewrite testdata/save_image.rdb from the code under test")

// TestSaveImageGolden pins the bytes Save writes for a small fixed document
// after a fixed run of inserts, deletes and text updates: catalog lines,
// labels and values quoted, gapped intervals ranked. How the database holds
// its catalog in memory must never show in its image. Run with -update only
// after an intended change of the image format.
func TestSaveImageGolden(t *testing.T) {
	const path = "testdata/save_image.rdb"
	s, m := openCourses(t, 3)
	dept := m.byLabel("dept")[0]
	var mine []int
	for i := 0; i < 6; i++ {
		mine = append(mine, insertBoth(t, s, m, dept, fragCourse(i)).NodeID)
	}
	for _, id := range []int{mine[1], mine[4]} {
		if _, err := s.DeleteSubtree(id); err != nil {
			t.Fatal(err)
		}
	}
	for i, id := range []int{2, mine[2] + 1, mine[5] + 2} {
		if _, err := s.UpdateText(id, fmt.Sprintf("v%d \"q\"\n\tü", i)); err != nil {
			t.Fatal(err)
		}
	}
	got := saveBytes(t, s.View().DB)
	if *updateImage {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Save image differs from %s:\n%s", path, got)
	}
}
