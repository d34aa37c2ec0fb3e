package rdb

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"xpath2sql/internal/difftest"
	"xpath2sql/internal/obs"
	"xpath2sql/internal/ra"
)

// Differential tests for document scope: over random forests and random
// programs — every operator, DescScan on both physical paths — a run scoped
// to one document must equal, tuple for tuple and counter for counter, the
// same program run on a database holding that document alone.

// makeForest builds n typed nodes as a forest of nDocs trees under the
// virtual root. Parents are random earlier nodes, so neither node IDs nor
// insertion order follow document order: a view's run is contiguous only in
// the begin-sorted index.
func makeForest(r difftest.Source, n, nDocs, nRels int) *DB {
	db := NewDB()
	vocab := []string{"", "a", "b", "c"}
	for ri := 0; ri < nRels; ri++ {
		db.Rel(fmt.Sprintf("R%d", ri))
	}
	for id := 1; id <= n; id++ {
		parent := 0
		if id > nDocs {
			parent = 1 + r.Intn(id-1)
		}
		db.Insert(fmt.Sprintf("R%d", r.Intn(nRels)), parent, id, vocab[r.Intn(len(vocab))])
	}
	db.DTDFP = "fp-tree-test"
	db.RebuildIntervals()
	return db
}

// docAlone extracts the document under root into a database of its own, node
// IDs kept.
func docAlone(db *DB, root int) *DB {
	in := map[int]bool{}
	for _, id := range nodeIDs(db) {
		top := id
		for db.Parent(top) != 0 {
			top = db.Parent(top)
		}
		in[id] = top == root
	}
	out := NewDB()
	for name, rel := range db.Rels {
		out.Rel(name)
		for _, tp := range rel.Tuples() {
			if in[tp.T] {
				out.Insert(name, tp.F, tp.T, tp.V)
			}
		}
	}
	out.DTDFP = db.DTDFP
	out.RebuildIntervals()
	return out
}

func docRoots(db *DB) []int {
	var roots []int
	for _, id := range nodeIDs(db) {
		if db.Parent(id) == 0 {
			roots = append(roots, id)
		}
	}
	return roots
}

// scopeProgram draws from both operator sets: graphOps covers every operator
// but DescScan (RecUnion, Diff and Antijoin included), treeProgram adds
// DescScan.
func scopeProgram(r difftest.Source, nRels int) *ra.Program {
	if r.Intn(2) == 0 {
		p := difftest.Program(r, nRels, graphOps)
		p.DTDFP = "fp-tree-test"
		return p
	}
	return treeProgram(r, nRels, true)
}

func TestScopedRunEqualsDocumentAlone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nRels := 1 + r.Intn(3)
		nDocs := 2 + r.Intn(4)
		db := makeForest(r, nDocs+r.Intn(40), nDocs, nRels)
		p := scopeProgram(r, nRels)
		roots := docRoots(db)
		root := roots[r.Intn(len(roots))]
		alone := docAlone(db, root)

		for _, mode := range []IntervalMode{IntervalAuto, IntervalOff} {
			want := NewExec(alone)
			want.IntervalMode = mode
			wantRel, err := want.Run(p)
			if err != nil {
				t.Logf("alone (seed=%d): %v", seed, err)
				return false
			}
			check := func(name string, got *Relation, stats Stats, err error) bool {
				if err != nil {
					t.Logf("%s (seed=%d, %v): %v", name, seed, mode, err)
					return false
				}
				if !sameTuples(wantRel.Tuples(), got.Tuples()) || !slices.Equal(wantRel.TIDs(), got.TIDs()) {
					t.Logf("%s differs from the document alone (seed=%d, %v, doc %d)\nprogram:\n%salone:  %v\nscoped: %v",
						name, seed, mode, root, p, canonTuples(wantRel.Tuples()), canonTuples(got.Tuples()))
					return false
				}
				if want.Stats != stats {
					t.Logf("%s did other work than the document alone (seed=%d, %v)\nprogram:\n%salone:  %+v\nscoped: %+v",
						name, seed, mode, p, want.Stats, stats)
					return false
				}
				return true
			}

			ex := NewExec(db)
			ex.IntervalMode, ex.Doc = mode, root
			rel, err := ex.Run(p)
			if !check("unpooled", rel, ex.Stats, err) {
				return false
			}
			st := AcquireState(db)
			ex = st.Exec()
			ex.IntervalMode, ex.Doc = mode, root
			rel, err = ex.Run(p)
			ok := check("pooled", rel, ex.Stats, err)
			st.Release()
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestScopedPooledStateKeepsIndexIntact: a view's rows alias the shared
// begin-sorted index; recycling the view through the arena must not let a
// later request's temporaries grow into it. And a view's F index answers key
// 0, the virtual root, with the scope's own root alone, though the key set it
// shares with the base holds 0 for every relation some document's root is in:
// the root probed against each relation answers as on the document alone.
func TestScopedPooledStateKeepsIndexIntact(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	db := makeForest(r, 60, 4, 2)
	p := &ra.Program{
		Stmts: []ra.Stmt{{Name: "result", Plan: ra.UnionAll{Kids: []ra.Plan{
			ra.Base{Rel: "R0"}, ra.Compose{L: ra.Base{Rel: "R0"}, R: ra.Base{Rel: "R1"}},
		}}}},
		Result: "result", DTDFP: db.DTDFP,
	}
	runOn := func(db *DB, p *ra.Program, doc int) []Tuple {
		st := AcquireState(db)
		defer st.Release()
		st.Exec().Doc = doc
		rel, err := st.Exec().Run(p)
		if err != nil {
			t.Fatal(err)
		}
		return canonTuples(rel.Tuples())
	}
	run := func(doc int) []Tuple { return runOn(db, p, doc) }
	roots := docRoots(db)
	for _, rel := range []string{"R0", "R1"} {
		holds := 0
		for _, root := range roots {
			if db.Rel(rel).Has(0, root) {
				holds++
			}
		}
		if holds == 0 || holds == len(roots) {
			t.Fatalf("%s holds %d of the %d document roots; the forest must put some in each relation", rel, holds, len(roots))
		}
		atRoot := prog(ra.Semijoin{L: ra.RootSeed{}, R: ra.Base{Rel: rel}})
		atRoot.DTDFP = db.DTDFP
		for _, root := range roots {
			want := runOn(docAlone(db, root), atRoot, 0)
			for round := 0; round < 2; round++ {
				if got := runOn(db, atRoot, root); !sameTuples(got, want) {
					t.Fatalf("document %d, round %d: the root probed against %s answers %v, %v on the document alone", root, round, rel, got, want)
				}
			}
		}
	}
	first := map[int][]Tuple{}
	for _, root := range roots {
		first[root] = run(root)
	}
	whole := run(0)
	for round := 0; round < 3; round++ {
		for _, root := range roots {
			if got := run(root); !sameTuples(got, first[root]) {
				t.Fatalf("round %d: document %d answered %v, first run %v", round, root, got, first[root])
			}
		}
		if got := run(0); !sameTuples(got, whole) {
			t.Fatalf("round %d: the unscoped answer changed after scoped runs on the same pooled state", round)
		}
	}
}

// TestTracedRunBuildsWhatUntracedDoes: a trace resolves nothing the run does
// not. The same program, traced and untraced, each on its own copy of a
// forest, builds the same descendant indexes and does the same work — scoped
// and not, on the interval kernel and on the fixpoint alternative. The first
// program is a type filter, whose relation a scoped run probes and never
// scans. And a scoped trace counts what the same trace of the document alone
// does: the same events, each with the same In and Out.
func TestTracedRunBuildsWhatUntracedDoes(t *testing.T) {
	var built []string
	defer OnDescIndexBuild(func(rel string) { built = append(built, rel) })()
	run := func(db *DB, p *ra.Program, mode IntervalMode, doc int, trace *obs.Trace) ([]string, Stats) {
		ex := NewExec(db)
		ex.IntervalMode, ex.Doc = mode, doc
		built = built[:0]
		if _, err := ex.RunCtx(context.Background(), p, trace); err != nil {
			t.Fatal(err)
		}
		slices.Sort(built)
		return slices.Clone(built), ex.Stats
	}
	forest := func(seed int64) *DB { return makeForest(rand.New(rand.NewSource(seed)), 60, 4, 3) }
	filter := prog(ra.TypeFilter{Child: ra.Base{Rel: "R0"}, Rel: "R1"})
	filter.DTDFP = "fp-tree-test"
	r := rand.New(rand.NewSource(3))
	progs := []*ra.Program{filter, scopedReadProgram("fp-tree-test")}
	for len(progs) < 100 {
		progs = append(progs, scopeProgram(r, 3))
	}
	for i, p := range progs {
		seed := int64(i)
		root := docRoots(forest(seed))[1]
		for _, mode := range []IntervalMode{IntervalAuto, IntervalOff} {
			for _, doc := range []int{root, 0} {
				plain, plainStats := run(forest(seed), p, mode, doc, nil)
				var trace obs.Trace
				traced, tracedStats := run(forest(seed), p, mode, doc, &trace)
				if !slices.Equal(plain, traced) || plainStats != tracedStats {
					t.Fatalf("program %d (%v, doc %d) untraced built %v and did %+v; traced built %v and did %+v\n%s",
						i, mode, doc, plain, plainStats, traced, tracedStats, p)
				}
				if len(trace.Events) != tracedStats.StmtsRun {
					t.Fatalf("program %d: %d trace events, %d statements run", i, len(trace.Events), tracedStats.StmtsRun)
				}
				if doc == 0 {
					continue
				}
				var alone obs.Trace
				run(docAlone(forest(seed), root), p, mode, 0, &alone)
				counts := func(tr obs.Trace) (out [][3]any) {
					for _, ev := range tr.Events {
						out = append(out, [3]any{ev.Stmt, ev.In, ev.Out})
					}
					return out
				}
				if got, want := counts(trace), counts(alone); !slices.Equal(got, want) {
					t.Fatalf("program %d (%v): the scoped trace counts (statement, in, out) %v, the document alone's %v\n%s", i, mode, got, want, p)
				}
			}
		}
	}
}

// TestIndexForRefusesPerRunRelations: the descendant-index cache is keyed by
// *Relation, so it must never take a relation that lives for one run — a
// pooled temporary or a scoped view, whose pointer the arena hands out again
// (an index cached for one document's view answered the next document's run
// with the first one's rows). A production run gets an error; this package's
// tests panic.
func TestIndexForRefusesPerRunRelations(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	db := makeForest(r, 30, 2, 2)
	st := AcquireState(db)
	defer st.Release()
	ex := st.Exec()
	ex.Doc = docRoots(db)[0]
	if _, err := ex.Run(prog(ra.Base{Rel: "R0"})); err != nil {
		t.Fatal(err)
	}
	enc := db.encoding()
	t.Cleanup(func() { strictPerRun = true })
	for name, rel := range map[string]*Relation{"pooled temporary": st.alloc("tmp", false), "scoped view": ex.views[0]} {
		strictPerRun = false
		if _, err := enc.indexFor(rel); !errors.Is(err, errPerRunIndex) {
			t.Errorf("%s: err = %v, want errPerRunIndex", name, err)
		}
		strictPerRun = true
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic under strictPerRun", name)
				}
			}()
			_, _ = enc.indexFor(rel)
		}()
	}
	if _, err := enc.indexFor(db.Rel("R0")); err != nil {
		t.Fatalf("a stored relation: %v", err)
	}
}

func TestScopeErrors(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	db := makeForest(r, 20, 2, 2)
	p := &ra.Program{Stmts: []ra.Stmt{{Name: "result", Plan: ra.Base{Rel: "R0"}}}, Result: "result"}
	run := func(db *DB, doc int) (serial, pooled error) {
		ex := NewExec(db)
		ex.Doc = doc
		_, serial = ex.Run(p)
		st := AcquireState(db)
		defer st.Release()
		ex = st.Exec()
		ex.Doc = doc
		_, pooled = ex.Run(p)
		return serial, pooled
	}
	for _, doc := range []int{3, 999, -1} { // an inner node, an unknown one, nonsense
		if s, p := run(db, doc); !errors.Is(s, ErrNotDocumentRoot) || !errors.Is(p, ErrNotDocumentRoot) {
			t.Fatalf("doc %d: serial %v, pooled %v, want ErrNotDocumentRoot", doc, s, p)
		}
	}
	bare := cowDB(db)
	bare.InvalidateIntervals()
	if s, p := run(bare, 1); !errors.Is(s, ErrScopeNeedsIntervals) || !errors.Is(p, ErrScopeNeedsIntervals) {
		t.Fatalf("no encoding: serial %v, pooled %v, want ErrScopeNeedsIntervals", s, p)
	}
	// A node stored after the encoding was built: the encoding is stale for
	// its relation, and a scoped read of it says so instead of guessing.
	stale := cowDB(db)
	stale.Insert("R0", 1, 99, "")
	if s, p := run(stale, 1); !errors.Is(s, ErrScopeNeedsIntervals) || !errors.Is(p, ErrScopeNeedsIntervals) {
		t.Fatalf("stale encoding: serial %v, pooled %v, want ErrScopeNeedsIntervals", s, p)
	}
}
