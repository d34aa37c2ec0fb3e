package rdb

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"xpath2sql/internal/ra"
)

// chainDB builds a database with one relation "E" forming a path graph
// 1→2→…→n plus the provided extra edges.
func chainDB(n int, extra ...[2]int) *DB {
	db := NewDB()
	for i := 1; i < n; i++ {
		db.Insert("E", i, i+1, "")
	}
	for _, e := range extra {
		db.Insert("E", e[0], e[1], "")
	}
	for i := 1; i <= n; i++ {
		if !db.HasNode(i) {
			db.nodes.Load().tab.put(i, 0, 0)
		}
	}
	return db
}

func run(t *testing.T, db *DB, prog *ra.Program) (*Relation, *Exec) {
	t.Helper()
	ex := NewExec(db)
	rel, err := ex.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	return rel, ex
}

func prog(p ra.Plan) *ra.Program {
	return &ra.Program{Stmts: []ra.Stmt{{Name: "result", Plan: p}}, Result: "result"}
}

func TestRelationDedup(t *testing.T) {
	r := NewRelation("r")
	if !r.Add(1, 2, "x") {
		t.Fatal("first Add returned false")
	}
	if r.Add(1, 2, "y") {
		t.Fatal("duplicate (F,T) accepted")
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d", r.Len())
	}
	if !r.Has(1, 2) || r.Has(2, 1) {
		t.Fatalf("Has wrong")
	}
}

func TestRelationIndexes(t *testing.T) {
	r := NewRelation("r")
	r.Add(1, 2, "")
	r.Add(1, 3, "")
	r.Add(2, 3, "")
	if got := len(r.ByF(1)); got != 2 {
		t.Fatalf("ByF(1) = %d", got)
	}
	if got := len(r.ByT(3)); got != 2 {
		t.Fatalf("ByT(3) = %d", got)
	}
	// Index invalidation on Add.
	r.Add(1, 4, "")
	if got := len(r.ByF(1)); got != 3 {
		t.Fatalf("ByF(1) after Add = %d", got)
	}
	ids := r.TIDs()
	if len(ids) != 3 || ids[0] != 2 || ids[2] != 4 {
		t.Fatalf("TIDs = %v", ids)
	}
}

func TestCompose(t *testing.T) {
	db := NewDB()
	db.Insert("A", 0, 1, "")
	db.Insert("B", 1, 2, "x")
	db.Insert("B", 1, 3, "y")
	db.Insert("B", 9, 4, "z")
	rel, _ := run(t, db, prog(ra.Compose{L: ra.Base{Rel: "A"}, R: ra.Base{Rel: "B"}}))
	if rel.Len() != 2 {
		t.Fatalf("compose len = %d", rel.Len())
	}
	if !rel.Has(0, 2) || !rel.Has(0, 3) {
		t.Fatalf("compose tuples wrong: %v", rel.Tuples())
	}
	// V comes from the right side.
	for _, tp := range rel.Tuples() {
		if tp.T == 2 && tp.V != "x" {
			t.Fatalf("V not propagated: %+v", tp)
		}
	}
}

func TestUnionDiffSemiAnti(t *testing.T) {
	db := NewDB()
	db.Insert("A", 1, 2, "")
	db.Insert("A", 1, 3, "")
	db.Insert("B", 1, 3, "")
	db.Insert("B", 1, 4, "")
	db.Insert("W", 3, 9, "")

	rel, _ := run(t, db, prog(ra.UnionAll{Kids: []ra.Plan{ra.Base{Rel: "A"}, ra.Base{Rel: "B"}}}))
	if rel.Len() != 3 {
		t.Fatalf("union len = %d", rel.Len())
	}
	rel, _ = run(t, db, prog(ra.Diff{L: ra.Base{Rel: "A"}, R: ra.Base{Rel: "B"}}))
	if rel.Len() != 1 || !rel.Has(1, 2) {
		t.Fatalf("diff = %v", rel.Tuples())
	}
	// Semijoin: A tuples whose T has a W edge (T=3 only).
	rel, _ = run(t, db, prog(ra.Semijoin{L: ra.Base{Rel: "A"}, R: ra.Base{Rel: "W"}}))
	if rel.Len() != 1 || !rel.Has(1, 3) {
		t.Fatalf("semijoin = %v", rel.Tuples())
	}
	rel, _ = run(t, db, prog(ra.Antijoin{L: ra.Base{Rel: "A"}, R: ra.Base{Rel: "W"}}))
	if rel.Len() != 1 || !rel.Has(1, 2) {
		t.Fatalf("antijoin = %v", rel.Tuples())
	}
}

func TestSelects(t *testing.T) {
	db := NewDB()
	db.Insert("A", 0, 1, "x")
	db.Insert("A", 1, 2, "y")
	rel, _ := run(t, db, prog(ra.SelectVal{Child: ra.Base{Rel: "A"}, Val: "y"}))
	if rel.Len() != 1 || !rel.Has(1, 2) {
		t.Fatalf("selectval = %v", rel.Tuples())
	}
	rel, _ = run(t, db, prog(ra.SelectRoot{Child: ra.Base{Rel: "A"}}))
	if rel.Len() != 1 || !rel.Has(0, 1) {
		t.Fatalf("selectroot = %v", rel.Tuples())
	}
}

func TestIdentAndIdentOf(t *testing.T) {
	db := NewDB()
	db.Insert("A", 0, 1, "x")
	db.Insert("A", 1, 2, "y")
	// R_id covers every stored node plus the virtual root (0,0).
	rel, _ := run(t, db, prog(ra.Ident{}))
	if rel.Len() != 3 || !rel.Has(0, 0) || !rel.Has(1, 1) || !rel.Has(2, 2) {
		t.Fatalf("ident = %v", rel.Tuples())
	}
	rel, _ = run(t, db, prog(ra.IdentOf{Child: ra.Base{Rel: "A"}}))
	if rel.Len() != 2 || !rel.Has(1, 1) || !rel.Has(2, 2) {
		t.Fatalf("identof T = %v", rel.Tuples())
	}
	rel, _ = run(t, db, prog(ra.IdentOf{Child: ra.Base{Rel: "A"}, OnF: true}))
	if rel.Len() != 2 || !rel.Has(0, 0) || !rel.Has(1, 1) {
		t.Fatalf("identof F = %v", rel.Tuples())
	}
}

// closureRef computes the transitive closure by Floyd–Warshall as a
// reference for Φ(R).
func closureRef(edges []Tuple, n int) map[[2]int]bool {
	reach := map[[2]int]bool{}
	for _, e := range edges {
		reach[[2]int{e.F, e.T}] = true
	}
	for k := 0; k <= n; k++ {
		for i := 0; i <= n; i++ {
			if !reach[[2]int{i, k}] {
				continue
			}
			for j := 0; j <= n; j++ {
				if reach[[2]int{k, j}] {
					reach[[2]int{i, j}] = true
				}
			}
		}
	}
	return reach
}

func TestFixEqualsClosure(t *testing.T) {
	db := chainDB(5, [2]int{5, 2}, [2]int{3, 3})
	rel, ex := run(t, db, prog(ra.Fix{Seed: ra.Base{Rel: "E"}}))
	want := closureRef(db.Rel("E").Tuples(), 6)
	if rel.Len() != len(want) {
		t.Fatalf("closure len = %d, want %d", rel.Len(), len(want))
	}
	for k := range want {
		if !rel.Has(k[0], k[1]) {
			t.Errorf("missing pair %v", k)
		}
	}
	if ex.Stats.LFPs != 1 {
		t.Errorf("LFPs = %d", ex.Stats.LFPs)
	}
	if ex.Stats.LFPIters == 0 {
		t.Errorf("LFPIters = 0")
	}
}

// TestFixRandomGraphs: Φ(R) equals Floyd–Warshall closure on random graphs.
func TestFixRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8)
		db := NewDB()
		var edges []Tuple
		for i := 0; i < n*2; i++ {
			f0, t0 := 1+r.Intn(n), 1+r.Intn(n)
			db.Insert("E", f0, t0, "")
			edges = append(edges, Tuple{F: f0, T: t0})
		}
		ex := NewExec(db)
		rel, err := ex.Run(prog(ra.Fix{Seed: ra.Base{Rel: "E"}}))
		if err != nil {
			return false
		}
		want := closureRef(db.Rel("E").Tuples(), n)
		if rel.Len() != len(want) {
			return false
		}
		for k := range want {
			if !rel.Has(k[0], k[1]) {
				return false
			}
		}
		_ = edges
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestFixStartEndConstraints: constrained fixpoints agree with filtering the
// unconstrained closure.
func TestFixStartEndConstraints(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(8)
		db := NewDB()
		for i := 0; i < n*2; i++ {
			db.Insert("E", 1+r.Intn(n), 1+r.Intn(n), "")
		}
		// Constraint relation S: random tuples; start set is π_T(S), end
		// set π_F(S).
		for i := 0; i < 3; i++ {
			db.Insert("S", 1+r.Intn(n), 1+r.Intn(n), "")
		}
		full, err := NewExec(db).Run(prog(ra.Fix{Seed: ra.Base{Rel: "E"}}))
		if err != nil {
			return false
		}
		started, err := NewExec(db).Run(prog(ra.Fix{Seed: ra.Base{Rel: "E"}, Start: ra.Base{Rel: "S"}}))
		if err != nil {
			return false
		}
		ended, err := NewExec(db).Run(prog(ra.Fix{Seed: ra.Base{Rel: "E"}, End: ra.Base{Rel: "S"}}))
		if err != nil {
			return false
		}
		both, err := NewExec(db).Run(prog(ra.Fix{Seed: ra.Base{Rel: "E"}, Start: ra.Base{Rel: "S"}, End: ra.Base{Rel: "S"}}))
		if err != nil {
			return false
		}
		ts := colSet(db.Rel("S").rows, false)
		fs := colSet(db.Rel("S").rows, true)
		wantStart, wantEnd, wantBoth := 0, 0, 0
		for _, tp := range full.Tuples() {
			_, inS := ts[int32(tp.F)]
			_, inE := fs[int32(tp.T)]
			if inS {
				wantStart++
				if !started.Has(tp.F, tp.T) {
					return false
				}
			}
			if inE {
				wantEnd++
				if !ended.Has(tp.F, tp.T) {
					return false
				}
			}
			if inS && inE {
				wantBoth++
				if !both.Has(tp.F, tp.T) {
					return false
				}
			}
		}
		return started.Len() == wantStart && ended.Len() == wantEnd && both.Len() == wantBoth
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRecUnionEdgeModeFig2(t *testing.T) {
	// The dept database of Table 1, relations Rd, Rc, Rs, Rp; the SQLGen-R
	// query of Fig 2 must produce exactly the tuples of Table 2.
	db := NewDB()
	// Node IDs: d1=1, c1=2, c2=3, c3=4, c4=5, c5=6, s1=7, s2=8, p1=9, p2=10.
	db.Insert("Rd", 0, 1, "")
	db.Insert("Rc", 1, 2, "")
	db.Insert("Rc", 2, 3, "")
	db.Insert("Rc", 3, 4, "")
	db.Insert("Rc", 9, 5, "")
	db.Insert("Rc", 8, 6, "")
	db.Insert("Rs", 2, 7, "")
	db.Insert("Rs", 2, 8, "")
	db.Insert("Rp", 3, 9, "")
	db.Insert("Rp", 5, 10, "")

	// Init (Fig 2 lines 3–4): Rc edges incoming from dept nodes — the edge
	// tuples themselves, expressed as ident_T(Rd) ⋈ Rc.
	rec := ra.RecUnion{
		Init: []ra.Tagged{{Tag: "c", Plan: ra.Compose{L: ra.IdentOf{Child: ra.Base{Rel: "Rd"}}, R: ra.Base{Rel: "Rc"}}}},
		Edges: []ra.RecEdge{
			{FromTag: "c", ToTag: "c", Rel: ra.Base{Rel: "Rc"}},
			{FromTag: "c", ToTag: "s", Rel: ra.Base{Rel: "Rs"}},
			{FromTag: "s", ToTag: "c", Rel: ra.Base{Rel: "Rc"}},
			{FromTag: "c", ToTag: "p", Rel: ra.Base{Rel: "Rp"}},
			{FromTag: "p", ToTag: "c", Rel: ra.Base{Rel: "Rc"}},
		},
	}
	rel, ex := run(t, db, prog(rec))
	// Table 2: (d1,c1) (c1,c2) (c1,s1) (c1,s2) (c2,c3) (c2,p1) (s2,c5)
	// (p1,c4) (c4,p2) — 9 tuples.
	want := [][2]int{{1, 2}, {2, 3}, {2, 7}, {2, 8}, {3, 4}, {3, 9}, {8, 6}, {9, 5}, {5, 10}}
	if rel.Len() != len(want) {
		t.Fatalf("recunion len = %d, want %d: %v", rel.Len(), len(want), rel.Tuples())
	}
	for _, w := range want {
		if !rel.Has(w[0], w[1]) {
			t.Errorf("missing %v", w)
		}
	}
	if ex.Stats.RecFixes != 1 {
		t.Errorf("RecFixes = %d", ex.Stats.RecFixes)
	}
	// Wait: the init tuple (d1,c1) joins edges in iteration 1, etc.; Table 2
	// shows 4 iterations after the init.
	if ex.Stats.LFPIters < 4 {
		t.Errorf("iterations = %d, want >= 4", ex.Stats.LFPIters)
	}

	// ResultTag 'p' selects the project rows: T values {p1, p2} = {9, 10}.
	rec.ResultTag = "p"
	rel, _ = run(t, db, prog(rec))
	ids := rel.TIDs()
	if len(ids) != 2 || ids[0] != 9 || ids[1] != 10 {
		t.Fatalf("Rid='p' T values = %v", ids)
	}
}

func TestRecUnionPairsMode(t *testing.T) {
	// Pair mode must compute (origin, descendant) pairs: seed (1,1) over a
	// chain 1→2→3 with tags per type alternating.
	db := NewDB()
	db.Insert("A", 0, 1, "")
	db.Insert("B", 1, 2, "")
	db.Insert("A2", 2, 3, "")
	seed := NewRelation("")
	_ = seed
	rec := ra.RecUnion{
		Init: []ra.Tagged{{Tag: "a", Plan: ra.IdentOf{Child: ra.Base{Rel: "A"}}}},
		Edges: []ra.RecEdge{
			{FromTag: "a", ToTag: "b", Rel: ra.Base{Rel: "B"}},
			{FromTag: "b", ToTag: "a", Rel: ra.Base{Rel: "A2"}},
		},
		Pairs: true,
	}
	rel, _ := run(t, db, prog(rec))
	// Pairs: (1,1) ident, (1,2), (1,3).
	if rel.Len() != 3 || !rel.Has(1, 1) || !rel.Has(1, 2) || !rel.Has(1, 3) {
		t.Fatalf("pairs = %v", rel.Tuples())
	}
}

func TestRootSeedAndTypeFilter(t *testing.T) {
	db := NewDB()
	db.Insert("A", 0, 1, "")
	db.Insert("B", 1, 2, "")
	rel, _ := run(t, db, prog(ra.RootSeed{}))
	if rel.Len() != 1 || !rel.Has(0, 0) {
		t.Fatalf("rootseed = %v", rel.Tuples())
	}
	all := ra.UnionAll{Kids: []ra.Plan{ra.Base{Rel: "A"}, ra.Base{Rel: "B"}}}
	rel, _ = run(t, db, prog(ra.TypeFilter{Child: all, Rel: "B"}))
	if rel.Len() != 1 || !rel.Has(1, 2) {
		t.Fatalf("typefilter = %v", rel.Tuples())
	}
}

func TestLazyEvaluationSkipsUnused(t *testing.T) {
	db := NewDB()
	db.Insert("A", 0, 1, "")
	p := &ra.Program{
		Stmts: []ra.Stmt{
			{Name: "unused", Plan: ra.Fix{Seed: ra.Base{Rel: "A"}}},
			{Name: "result", Plan: ra.Base{Rel: "A"}},
		},
		Result: "result",
	}
	ex := NewExec(db)
	if _, err := ex.Run(p); err != nil {
		t.Fatal(err)
	}
	if ex.Stats.StmtsRun != 1 {
		t.Fatalf("lazy run evaluated %d statements, want 1", ex.Stats.StmtsRun)
	}
	if ex.Stats.LFPs != 0 {
		t.Fatalf("lazy run evaluated the unused fixpoint")
	}
	// Eager mode runs everything.
	ex2 := NewExec(db)
	ex2.Lazy = false
	if _, err := ex2.Run(p); err != nil {
		t.Fatal(err)
	}
	if ex2.Stats.StmtsRun != 2 || ex2.Stats.LFPs != 1 {
		t.Fatalf("eager run: stmts=%d lfps=%d", ex2.Stats.StmtsRun, ex2.Stats.LFPs)
	}
}

func TestExecErrors(t *testing.T) {
	db := NewDB()
	ex := NewExec(db)
	if _, err := ex.Run(&ra.Program{Result: "nope"}); err == nil {
		t.Fatalf("unknown statement accepted")
	}
	cyc := &ra.Program{
		Stmts:  []ra.Stmt{{Name: "a", Plan: ra.Temp{Name: "a"}}},
		Result: "a",
	}
	if _, err := NewExec(db).Run(cyc); err == nil {
		t.Fatalf("cyclic reference accepted")
	}
}

func TestTempMemoization(t *testing.T) {
	db := chainDB(4)
	p := &ra.Program{
		Stmts: []ra.Stmt{
			{Name: "tc", Plan: ra.Fix{Seed: ra.Base{Rel: "E"}}},
			{Name: "result", Plan: ra.UnionAll{Kids: []ra.Plan{ra.Temp{Name: "tc"}, ra.Temp{Name: "tc"}}}},
		},
		Result: "result",
	}
	ex := NewExec(db)
	if _, err := ex.Run(p); err != nil {
		t.Fatal(err)
	}
	if ex.Stats.LFPs != 1 {
		t.Fatalf("temp evaluated twice: LFPs = %d", ex.Stats.LFPs)
	}
}

func TestDBLabelsAndParents(t *testing.T) {
	db := NewDB()
	db.InsertLabeled("R_a", "a", 0, 1, "")
	db.InsertLabeled("R_b", "b", 1, 2, "x")
	b, _ := db.Label(2)
	a, _ := db.Label(1)
	if _, ok := db.Label(3); b != "b" || a != "a" || ok {
		t.Fatalf("labels = %q, %q; node 3 labelled = %v", a, b, ok)
	}
	if db.Parent(2) != 1 || db.Parent(1) != 0 || !db.HasNode(1) || db.HasNode(1<<32+1) || db.HasNode(-1) {
		t.Fatalf("parents = %d, %d", db.Parent(2), db.Parent(1))
	}
}

// TestDeletedLabelStaysDeleted: a delete on a derived database leaves the
// label map it shares alone, so the deleted node's entry outlives it there.
// On a chain of derived databases, and on a sibling that deletes from the same
// parent, the node table hides every such entry, the next copy drops them, a
// node inserted again under a deleted ID does not get its old type back, and
// Save writes the new one.
func TestDeletedLabelStaysDeleted(t *testing.T) {
	base := NewDB()
	base.InsertLabeled("R_a", "a", 0, 1, "")
	for id := 2; id <= 9; id++ {
		base.InsertLabeled("R_b", "b", 1, id, "x")
	}
	label := func(db *DB, id int) string {
		if l, ok := db.Label(id); ok {
			return l
		}
		return "-"
	}
	expect := func(name string, db *DB, want map[int]string) {
		t.Helper()
		for id, l := range want {
			if got := label(db, id); got != l {
				t.Errorf("%s: node %d labelled %q, want %q", name, id, got, l)
			}
		}
	}
	shares := func(a, b *DB) bool { return reflect.ValueOf(a.Labels).Pointer() == reflect.ValueOf(b.Labels).Pointer() }

	c1 := base.Derive()
	for _, id := range []int{2, 3, 6} {
		c1.Delete("R_b", 1, id)
	}
	c2 := c1.Derive()
	c2.Delete("R_b", 1, 4)
	sibling := c1.Derive() // appends to a list c2 also extends
	sibling.Delete("R_b", 1, 5)
	if !shares(c2, base) || !shares(sibling, base) || c1.LabelEntriesCopied()+c2.LabelEntriesCopied()+sibling.LabelEntriesCopied() != 0 {
		t.Fatal("a delete copied the shared label map")
	}
	expect("base", base, map[int]string{2: "b", 3: "b", 4: "b", 5: "b", 6: "b"})
	expect("c1", c1, map[int]string{2: "-", 3: "-", 4: "b", 5: "b", 6: "-"})
	expect("c2", c2, map[int]string{2: "-", 3: "-", 4: "-", 5: "b", 6: "-"})
	expect("sibling", sibling, map[int]string{4: "b", 5: "-"})

	// The chain's third database inserts: its copy drops every deleted entry.
	c3 := c2.Derive()
	c3.InsertLabeled("R_b", "b", 1, 10, "x")
	if len(c3.Labels) != c3.NumNodes() || c3.LabelEntriesCopied() != c2.NumNodes() {
		t.Errorf("c3: %d label entries for %d nodes, %d copied for c2's %d", len(c3.Labels), c3.NumNodes(), c3.LabelEntriesCopied(), c2.NumNodes())
	}
	expect("c3", c3, map[int]string{4: "-", 5: "b", 10: "b"})
	sibling.InsertLabeled("R_b", "b", 1, 11, "x")
	if len(sibling.Labels) != sibling.NumNodes() {
		t.Errorf("sibling: %d label entries for %d nodes", len(sibling.Labels), sibling.NumNodes())
	}
	expect("sibling after its insert", sibling, map[int]string{4: "b", 5: "-", 11: "b"})

	// A deleted ID inserted again without a type has none, in a database whose
	// map still holds the old entry, and with one reads the new type.
	bare := c2.Derive()
	bare.Insert("R_b", 1, 2, "y")
	retyped := c2.Derive()
	retyped.InsertLabeled("R_c", "c", 1, 3, "z")
	expect("bare", bare, map[int]string{2: "-"})
	expect("retyped", retyped, map[int]string{3: "c"})
	expect("c2 after its children", c2, map[int]string{2: "-", 3: "-"})
	var buf bytes.Buffer
	if err := retyped.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "N 3 1 \"c\" \"z\"\n") {
		t.Errorf("Save of the retyped node:\n%s", buf.String())
	}
}
