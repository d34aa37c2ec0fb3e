package rdb

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"xpath2sql/internal/difftest"
	"xpath2sql/internal/ra"
)

// Differential tests for incremental view maintenance: a ViewState advanced
// by ApplyInsert/ApplyDelete/ApplyText across update sequences must hold
// exactly the answer a full re-execution computes on the updated database,
// and the published (added, removed) deltas must equal the answer set diffs.

// cowDB mirrors the store's copy-on-write transaction: a derived database
// with every relation cloned, over the SAME interner, so view symbol spaces
// stay compatible.
func cowDB(db *DB) *DB {
	nd := db.Derive()
	for name, r := range db.Rels {
		nd.Rels[name] = r.Clone()
	}
	return nd
}

// nodeIDs lists the stored nodes in ascending order.
func nodeIDs(db *DB) []int {
	ids := make([]int, 0, db.NumNodes())
	db.EachNode(func(id int) { ids = append(ids, id) })
	return ids
}

// fullAnswer is the oracle: translate-free full re-execution on the current
// database, extracting answer IDs the way the backend does.
func fullAnswer(t *testing.T, db *DB, p *ra.Program) []int {
	t.Helper()
	rel, err := NewExec(db).Run(p)
	if err != nil {
		t.Fatalf("oracle run: %v", err)
	}
	return rel.AnswerIDs()
}

func diffIDs(old, new []int) (added, removed []int) {
	inOld := make(map[int]bool, len(old))
	for _, id := range old {
		inOld[id] = true
	}
	inNew := make(map[int]bool, len(new))
	for _, id := range new {
		inNew[id] = true
	}
	for _, id := range new {
		if !inOld[id] {
			added = append(added, id)
		}
	}
	for _, id := range old {
		if !inNew[id] {
			removed = append(removed, id)
		}
	}
	sort.Ints(added)
	sort.Ints(removed)
	return added, removed
}

// applyOrRebuild advances vs by the maintenance matrix a caller (the ivm
// hub) uses, falling back to Rebuild exactly when the view or the update is
// outside the incremental fragment. It returns the published delta.
func applyOrRebuild(t *testing.T, vs *ViewState, apply func() ([]int, []int, error), newDB *DB) (added, removed []int) {
	t.Helper()
	a, rm, err := apply()
	if err != nil {
		if !errors.Is(err, ErrNonIncremental) {
			t.Fatalf("apply: %v", err)
		}
		a, rm, err = vs.Rebuild(newDB)
		if err != nil {
			t.Fatalf("rebuild: %v", err)
		}
	}
	return a, rm
}

// TestViewInsertDifferential: random insertable programs over random graph
// databases; random insert batches with fresh node IDs (the store's ID
// discipline) applied via ApplyInsert must track the full-execution answer
// and publish exact set-diff deltas.
func TestViewInsertDifferential(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nRels := 1 + r.Intn(3)
		n := 3 + r.Intn(15)
		db := randDB(r, n, nRels)
		p := difftest.Program(r, nRels, insertOps)

		vs, err := BuildViewState(db, p)
		if err != nil {
			t.Logf("build (seed=%d): %v", seed, err)
			return false
		}
		if !slices.Equal(vs.AnswerIDs(), fullAnswer(t, db, p)) {
			t.Logf("initial answer differs (seed=%d)", seed)
			return false
		}

		nextID := n + 1
		vocab := []string{"", "a", "b", "c"}
		for step := 0; step < 4; step++ {
			prev := vs.AnswerIDs()
			db2 := cowDB(db)
			bd := BaseDelta{Rows: map[string][]DeltaEdge{}}
			batch := 1 + r.Intn(4)
			for i := 0; i < batch; i++ {
				// F is any existing node (or the virtual root, or an
				// earlier node of this batch); T is always fresh.
				f := r.Intn(nextID)
				id := nextID
				nextID++
				rel := fmt.Sprintf("R%d", r.Intn(nRels))
				v := vocab[r.Intn(len(vocab))]
				db2.Insert(rel, f, id, v)
				bd.Rows[rel] = append(bd.Rows[rel], DeltaEdge{F: f, T: id, V: v})
				bd.NewIDs = append(bd.NewIDs, id)
			}
			var added []int
			if vs.Insertable() {
				if added, err = vs.ApplyInsert(db2, bd); err != nil {
					t.Logf("ApplyInsert (seed=%d): %v", seed, err)
					return false
				}
			} else {
				if added, _, err = vs.Rebuild(db2); err != nil {
					t.Logf("Rebuild (seed=%d): %v", seed, err)
					return false
				}
			}
			db = db2
			want := fullAnswer(t, db, p)
			if !slices.Equal(vs.AnswerIDs(), want) {
				t.Logf("answer differs after insert step %d (seed=%d)\nmaintained: %v\nfull:       %v",
					step, seed, vs.AnswerIDs(), want)
				return false
			}
			wantAdd, _ := diffIDs(prev, want)
			if !slices.Equal(added, wantAdd) {
				t.Logf("insert delta differs step %d (seed=%d): got %v want %v", step, seed, added, wantAdd)
				return false
			}
		}
		// A view rebuilt from scratch on the final epoch agrees — the
		// resubscribe-after-crash equivalence at the rdb layer.
		fresh, err := BuildViewState(db, p)
		if err != nil {
			return false
		}
		return slices.Equal(fresh.AnswerIDs(), vs.AnswerIDs())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// treeDoc is a miniature live store: a rooted tree with typed nodes, the
// interval encoding, and store-style COW updates.
type treeDoc struct {
	db     *DB
	relOf  map[int]string
	nextID int
}

func makeTree(r difftest.Source, n, nRels int) *treeDoc {
	td := &treeDoc{db: NewDB(), relOf: map[int]string{}, nextID: n + 1}
	vocab := []string{"", "a", "b", "c"}
	for id := 1; id <= n; id++ {
		parent := 0
		if id > 1 {
			parent = 1 + r.Intn(id-1)
		}
		rel := fmt.Sprintf("R%d", r.Intn(nRels))
		td.relOf[id] = rel
		td.db.Insert(rel, parent, id, vocab[r.Intn(len(vocab))])
	}
	td.db.DTDFP = "fp-tree-test"
	td.db.RebuildIntervals()
	return td
}

func (td *treeDoc) subtree(root int) []int {
	children := map[int][]int{}
	td.db.EachNode(func(id int) { children[td.db.Parent(id)] = append(children[td.db.Parent(id)], id) })
	var out []int
	var walk func(id int)
	walk = func(id int) {
		out = append(out, id)
		for _, k := range children[id] {
			walk(k)
		}
	}
	walk(root)
	return out
}

// insert grafts a small chain of fresh nodes under an existing parent and
// returns the new epoch plus the base delta, store-style.
func (td *treeDoc) insert(r difftest.Source) (*DB, BaseDelta) {
	vocab := []string{"", "a", "b", "c"}
	existing := nodeIDs(td.db)
	parent := existing[r.Intn(len(existing))]
	db2 := cowDB(td.db)
	bd := BaseDelta{Rows: map[string][]DeltaEdge{}}
	k := 1 + r.Intn(3)
	anchors := []int{parent}
	for i := 0; i < k; i++ {
		id := td.nextID
		td.nextID++
		f := anchors[r.Intn(len(anchors))]
		rel := fmt.Sprintf("R%d", r.Intn(3))
		v := vocab[r.Intn(len(vocab))]
		td.relOf[id] = rel
		db2.Insert(rel, f, id, v)
		bd.Rows[rel] = append(bd.Rows[rel], DeltaEdge{F: f, T: id, V: v})
		bd.NewIDs = append(bd.NewIDs, id)
		anchors = append(anchors, id)
	}
	db2.RebuildIntervals()
	return db2, bd
}

// del removes a random non-root subtree and returns the new epoch, the
// subtree root and the preorder deleted IDs. Returns nil when no deletable
// node exists.
func (td *treeDoc) del(r difftest.Source) (*DB, int, []int) {
	var candidates []int
	for _, id := range nodeIDs(td.db) {
		if id != 1 {
			candidates = append(candidates, id)
		}
	}
	if len(candidates) == 0 {
		return nil, 0, nil
	}
	root := candidates[r.Intn(len(candidates))]
	db2, deleted := td.delSubtree(root)
	return db2, root, deleted
}

// delSubtree removes the subtree under root, store-style, and returns the new
// epoch and the preorder deleted IDs. td stays at the old epoch.
func (td *treeDoc) delSubtree(root int) (*DB, []int) {
	deleted := td.subtree(root)
	db2 := cowDB(td.db)
	touched := map[string]bool{}
	for _, id := range deleted {
		rel := td.relOf[id]
		db2.Delete(rel, db2.Parent(id), id)
		touched[rel] = true
	}
	for rel := range touched {
		db2.Rel(rel).Compact()
	}
	db2.RebuildIntervals()
	return db2, deleted
}

// text rewrites one node's value in place, store-style (structure and
// intervals untouched).
func (td *treeDoc) text(r difftest.Source) (*DB, int) {
	existing := nodeIDs(td.db)
	id := existing[r.Intn(len(existing))]
	db2 := cowDB(td.db)
	v := []string{"", "a", "b", "z"}[r.Intn(4)]
	db2.UpdateValue(td.relOf[id], db2.Parent(id), id, v)
	return db2, id
}

// TestViewMixedUpdateDifferential: random view programs over random rooted
// trees driven through store-style insert/delete/text epochs, applying the
// ivm maintenance matrix (delta when the fragment allows, Rebuild
// otherwise); the maintained answer and every published delta must match
// full re-execution on each epoch.
func TestViewMixedUpdateDifferential(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nRels := 1 + r.Intn(3)
		td := makeTree(r, 4+r.Intn(12), nRels)
		p := treeProgram(r, nRels, r.Intn(2) == 0)

		vs, err := BuildViewState(td.db, p)
		if err != nil {
			t.Logf("build (seed=%d): %v", seed, err)
			return false
		}
		if !slices.Equal(vs.AnswerIDs(), fullAnswer(t, td.db, p)) {
			t.Logf("initial answer differs (seed=%d)", seed)
			return false
		}
		for step := 0; step < 6; step++ {
			prev := vs.AnswerIDs()
			var db2 *DB
			var gotAdd, gotRem []int
			switch op := r.Intn(4); {
			case op == 0: // delete
				var root int
				var deleted []int
				db2, root, deleted = td.del(r)
				if db2 == nil {
					continue
				}
				if vs.Deletable() {
					gotAdd, gotRem = applyOrRebuild(t, vs, func() ([]int, []int, error) {
						rm, err := vs.ApplyDelete(db2, td.db, root, deleted)
						return nil, rm, err
					}, db2)
				} else {
					if gotAdd, gotRem, err = vs.Rebuild(db2); err != nil {
						t.Logf("rebuild after delete (seed=%d): %v", seed, err)
						return false
					}
				}
			case op == 1: // text update
				db2, _ = td.text(r)
				if vs.TextImmune() {
					if err := vs.ApplyText(db2); err != nil {
						t.Logf("ApplyText (seed=%d): %v", seed, err)
						return false
					}
				} else {
					if gotAdd, gotRem, err = vs.Rebuild(db2); err != nil {
						t.Logf("rebuild after text (seed=%d): %v", seed, err)
						return false
					}
				}
			default: // insert
				var bd BaseDelta
				db2, bd = td.insert(r)
				if vs.Insertable() {
					gotAdd, gotRem = applyOrRebuild(t, vs, func() ([]int, []int, error) {
						a, err := vs.ApplyInsert(db2, bd)
						return a, nil, err
					}, db2)
				} else {
					if gotAdd, gotRem, err = vs.Rebuild(db2); err != nil {
						t.Logf("rebuild after insert (seed=%d): %v", seed, err)
						return false
					}
				}
			}
			td.db = db2
			want := fullAnswer(t, td.db, p)
			if !slices.Equal(vs.AnswerIDs(), want) {
				t.Logf("answer differs after step %d (seed=%d)\nmaintained: %v\nfull:       %v",
					step, seed, vs.AnswerIDs(), want)
				return false
			}
			wantAdd, wantRem := diffIDs(prev, want)
			if !slices.Equal(gotAdd, wantAdd) || !slices.Equal(gotRem, wantRem) {
				t.Logf("delta differs at step %d (seed=%d): got (+%v,-%v) want (+%v,-%v)",
					step, seed, gotAdd, gotRem, wantAdd, wantRem)
				return false
			}
		}
		fresh, err := BuildViewState(td.db, p)
		if err != nil {
			return false
		}
		return slices.Equal(fresh.AnswerIDs(), vs.AnswerIDs())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// forestDoc wraps an encoded forest (makeForest) as a miniature live store.
func forestDoc(db *DB) *treeDoc {
	td := &treeDoc{db: db, relOf: map[int]string{}}
	for name, rel := range db.Rels {
		for _, tp := range rel.Tuples() {
			td.relOf[tp.T] = name
			td.nextID = max(td.nextID, tp.T+1)
		}
	}
	return td
}

// multiDerivationPlan draws one of the shapes whose rows have several
// derivations, some through rows that a delete removes between two live nodes
// — what the re-derivation probes exist for, and what the uniform generator
// draws too rarely to test them: a union one side of which hangs on a witness,
// a join of closures one of which does, a descendant scan whose start nodes are each admitted by several
// such rows, and Φ over a seed whose edges, self-loops or shortcut edges do.
func multiDerivationPlan(r difftest.Source, nRels int, temps []string) ra.Plan {
	// One edge relation throughout, so the pieces meet; a node is witnessed
	// while it has a child of the next type, which a delete can take from it
	// without touching the edges.
	ri := r.Intn(nRels)
	rel := fmt.Sprintf("R%d", ri)
	base := ra.Base{Rel: rel}
	any := func() ra.Plan { return difftest.Plan(r, r.Intn(2), nRels, temps, treeOps) }
	witnessed := func(l ra.Plan) ra.Plan {
		return ra.Semijoin{L: l, R: ra.Base{Rel: fmt.Sprintf("R%d", (ri+1)%nRels)}}
	}
	seed := witnessed(base)
	switch r.Intn(6) {
	case 0:
		return ra.UnionAll{Kids: []ra.Plan{seed, base}}
	case 1:
		return ra.Compose{L: witnessed(ra.Fix{Seed: base}), R: ra.Fix{Seed: base}}
	case 2:
		ds := ra.DescScan{From: rel, To: rel, Alt: ra.Fix{Seed: base},
			Start: ra.Compose{L: witnessed(base), R: ra.Fix{Seed: base}}}
		if r.Intn(2) == 0 {
			ds.End = any()
		}
		return ds
	case 3:
		seed = ra.UnionAll{Kids: []ra.Plan{base, ra.IdentOf{Child: seed, OnF: r.Intn(2) == 0}}}
	case 4:
		seed = ra.UnionAll{Kids: []ra.Plan{base, ra.Compose{L: seed, R: base}}}
	}
	fx := ra.Fix{Seed: seed}
	if r.Intn(2) == 0 {
		fx.Start = any()
	}
	if r.Intn(2) == 0 {
		fx.End = any()
	}
	return fx
}

// materializations lists every relation the view maintains, keyed by the
// path of its operator node: statement name, then child indexes.
func (vs *ViewState) materializations() map[string]*Relation {
	out := map[string]*Relation{}
	var walk func(path string, n *viewNode)
	walk = func(path string, n *viewNode) {
		if n.out != nil {
			out[path] = n.out
		}
		if n.aux != nil {
			out[path+" aux"] = n.aux
		}
		for i, k := range n.kids {
			walk(fmt.Sprintf("%s.%d", path, i), k)
		}
	}
	for name, st := range vs.stmts {
		walk(name, st.root)
	}
	return out
}

// checkAgainstFreshBuild compares a maintained view with a fresh build on the
// same epoch: every operator node's materialization, aux closures included,
// compacted and equal as (F, T, V) sets — an answer can stay right over a
// wrong materialization for many steps — and the published delta equal to the
// set difference of the answers.
func checkAgainstFreshBuild(t *testing.T, label string, vs *ViewState, db *DB, p *ra.Program, prev, added, removed []int) {
	t.Helper()
	fresh, err := BuildViewState(db, p)
	if err != nil {
		t.Fatal(err)
	}
	got, want := vs.materializations(), fresh.materializations()
	if len(got) != len(want) {
		t.Fatalf("%s: %d materializations, a fresh build has %d", label, len(got), len(want))
	}
	for path, rel := range got {
		if rel.Tombstones() != 0 {
			t.Fatalf("%s: %s left %d tombstones", label, path, rel.Tombstones())
		}
		if !sameTuples(rel.Tuples(), want[path].Tuples()) {
			t.Fatalf("%s: materialization %s differs from a fresh build\nmaintained: %v\nfresh:      %v\n%s",
				label, path, canonTuples(rel.Tuples()), canonTuples(want[path].Tuples()), p)
		}
	}
	wantAdd, wantRem := diffIDs(prev, fresh.AnswerIDs())
	if !slices.Equal(added, wantAdd) || !slices.Equal(removed, wantRem) {
		t.Fatalf("%s: published (+%v, -%v), the answers differ by (+%v, -%v)\n%s", label, added, removed, wantAdd, wantRem, p)
	}
}

// TestViewWalkEveryMaterialization is the delta rules' own oracle. Random
// monotone programs — every operator, Semijoin, IdentOf on F, Fix and DescScan
// with pushed End constraints, Φ over composed and semijoined seeds, shared
// Temp statements — are walked through interleaved inserts and subtree deletes
// over random forests, once with DescScan on the interval kernel (what
// IntervalAuto picks on an encoded database) and once on its fixpoint
// alternative (what IntervalOff runs); then, from the epoch the walk reached,
// every single subtree delete is tried on a view of its own. No maintenance
// call may fail, and after each the view must pass checkAgainstFreshBuild.
// Disabling any one re-derivation probe of shrink/fixShrink (a lostKeys test,
// a joins probe, the UnionAll pair probe, Φ's put-back or either of its
// fixRounds) fails it.
func TestViewWalkEveryMaterialization(t *testing.T) {
	for _, mode := range []string{"interval kernel", "fixpoint alternative"} {
		t.Run(mode, func(t *testing.T) {
			var n walkCounts
			for seed := int64(0); seed < 600; seed++ {
				c := checkViewWalk(t, fmt.Sprintf("seed %d", seed), difftest.Seed(seed), seed%4 != 0, mode == "interval kernel")
				n.applies, n.kernelNodes, n.auxNodes, n.retracted = n.applies+c.applies, n.kernelNodes+c.kernelNodes, n.auxNodes+c.auxNodes, n.retracted+c.retracted
			}
			t.Logf("%d applies, %d kernel scans, %d filtered closures, %d answers retracted", n.applies, n.kernelNodes, n.auxNodes, n.retracted)
			if (n.kernelNodes > 0) != (mode == "interval kernel") || n.auxNodes == 0 || n.retracted == 0 {
				t.Fatalf("sample misses a path: %d kernel scans, %d filtered closures, %d answers retracted", n.kernelNodes, n.auxNodes, n.retracted)
			}
		})
	}
}

// FuzzViewWalkEveryMaterialization is TestViewWalkEveryMaterialization on
// the walks the fuzzer's bytes decode to.
func FuzzViewWalkEveryMaterialization(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2})
	f.Add([]byte{1, 1, 2, 9, 1, 3, 7, 9, 2, 2, 9, 1, 0, 4, 4, 1, 2, 2, 5})
	f.Fuzz(func(t *testing.T, b []byte) {
		src := difftest.FromBytes(b)
		multi, kernel := src.Intn(4) != 0, src.Intn(2) == 0
		checkViewWalk(t, "input", src, multi, kernel)
	})
}

// walkCounts is what a walk exercised: maintenance calls, descendant scans
// on the kernel, filtered closures and retracted answers.
type walkCounts struct{ applies, kernelNodes, auxNodes, retracted int }

// checkViewWalk draws a forest and a monotone program — with multi, one
// ending in a multiDerivationPlan — runs DescScan on the interval kernel or
// (a program of another DTD) on its fixpoint alternative, walks eight drawn
// inserts and subtree deletes, then tries every single subtree delete of the
// epoch reached on a view of its own; after each step the view must pass
// checkAgainstFreshBuild.
func checkViewWalk(t *testing.T, name string, r difftest.Source, multi, kernel bool) (n walkCounts) {
	t.Helper()
	nRels := 1 + r.Intn(3)
	td := forestDoc(makeForest(r, 5+r.Intn(14), 1+r.Intn(2), nRels))
	p := treeProgram(r, nRels, true)
	if multi {
		var temps []string
		for _, st := range p.Stmts {
			temps = append(temps, st.Name)
		}
		p.Stmts = append(p.Stmts, ra.Stmt{Name: "multi", Plan: multiDerivationPlan(r, nRels, temps)})
		p.Result = "multi"
	}
	if !kernel {
		p.DTDFP = "fp-of-another-dtd" // the kernel's soundness gate fails
	}
	build := func() *ViewState {
		vs, err := BuildViewState(td.db, p)
		if err != nil || vs.opaque {
			t.Fatalf("%s: build: opaque=%v err=%v\n%s", name, vs != nil && vs.opaque, err, p)
		}
		return vs
	}
	vs := build()
	vs.eachNode(func(vn *viewNode) {
		if vn.useFast {
			n.kernelNodes++
		}
		if vn.aux != nil {
			n.auxNodes++
		}
	})
	for step := 0; step < 8; step++ {
		prev := vs.AnswerIDs()
		var added, removed []int
		var err error
		if r.Intn(5) < 2 && td.db.NumNodes() > 1 {
			root := nodeIDs(td.db)[1+r.Intn(td.db.NumNodes()-1)]
			db2, deleted := td.delSubtree(root)
			removed, err = vs.ApplyDelete(db2, td.db, root, deleted)
			td.db = db2
		} else {
			db2, bd := td.insert(r)
			added, err = vs.ApplyInsert(db2, bd)
			td.db = db2
		}
		label := fmt.Sprintf("%s step %d", name, step)
		if err != nil {
			t.Fatalf("%s: %v\n%s", label, err, p)
		}
		n.applies++
		n.retracted += len(removed)
		checkAgainstFreshBuild(t, label, vs, td.db, p, prev, added, removed)
	}
	for _, root := range nodeIDs(td.db)[1:] {
		vs := build()
		prev := vs.AnswerIDs()
		db2, deleted := td.delSubtree(root)
		label := fmt.Sprintf("%s, after the walk, step delete %d", name, root)
		removed, err := vs.ApplyDelete(db2, td.db, root, deleted)
		if err != nil {
			t.Fatalf("%s: %v\n%s", label, err, p)
		}
		n.applies++
		checkAgainstFreshBuild(t, label, vs, db2, p, prev, nil, removed)
	}
	return n
}

// TestViewOpaqueFallback: non-monotone plans must classify as opaque and
// still maintain exact answers through Rebuild diffs.
func TestViewOpaqueFallback(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	db := randDB(r, 12, 2)
	p := &ra.Program{Stmts: []ra.Stmt{{
		Name: "result",
		Plan: ra.Antijoin{L: ra.Base{Rel: "R0"}, R: ra.Base{Rel: "R1"}},
	}}, Result: "result"}
	vs, err := BuildViewState(db, p)
	if err != nil {
		t.Fatal(err)
	}
	if vs.Insertable() || vs.Deletable() {
		t.Fatal("antijoin view must not be incrementally maintainable")
	}
	if !vs.TextImmune() {
		t.Fatal("antijoin over bases has no value selection; should be text-immune")
	}
	if !slices.Equal(vs.AnswerIDs(), fullAnswer(t, db, p)) {
		t.Fatal("opaque initial answer differs")
	}
	prev := vs.AnswerIDs()
	db2 := cowDB(db)
	db2.Insert("R1", 0, 13, "")
	added, removed, err := vs.Rebuild(db2)
	if err != nil {
		t.Fatal(err)
	}
	want := fullAnswer(t, db2, p)
	if !slices.Equal(vs.AnswerIDs(), want) {
		t.Fatalf("opaque answer differs after rebuild: got %v want %v", vs.AnswerIDs(), want)
	}
	wantAdd, wantRem := diffIDs(prev, want)
	if !slices.Equal(added, wantAdd) || !slices.Equal(removed, wantRem) {
		t.Fatalf("opaque rebuild delta: got (+%v,-%v) want (+%v,-%v)", added, removed, wantAdd, wantRem)
	}
}

// TestViewClassification pins the fragment boundaries the ivm maintenance
// matrix relies on.
func TestViewClassification(t *testing.T) {
	mk := func(pl ra.Plan) *ViewState {
		db := NewDB()
		db.Insert("R0", 0, 1, "a")
		db.Insert("R1", 1, 2, "b")
		vs, err := BuildViewState(db, &ra.Program{
			Stmts: []ra.Stmt{{Name: "result", Plan: pl}}, Result: "result"})
		if err != nil {
			t.Fatal(err)
		}
		return vs
	}
	vs := mk(ra.Fix{Seed: ra.Base{Rel: "R0"}})
	if !vs.Insertable() || !vs.Deletable() || !vs.TextImmune() {
		t.Fatal("plain fixpoint should be fully maintainable")
	}
	vs = mk(ra.Semijoin{L: ra.Base{Rel: "R0"}, R: ra.Base{Rel: "R1"}})
	if !vs.Insertable() || !vs.Deletable() {
		t.Fatal("semijoin: monotone, so insertable and deletable")
	}
	vs = mk(ra.SelectVal{Child: ra.Base{Rel: "R0"}, Val: "a"})
	if vs.TextImmune() {
		t.Fatal("value selection must not be text-immune")
	}
	vs = mk(ra.Fix{Seed: ra.Base{Rel: "R0"}, TrackPaths: true})
	if vs.Insertable() || vs.Deletable() {
		t.Fatal("tracked paths must fall back to opaque")
	}
}
