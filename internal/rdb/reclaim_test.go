package rdb

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"xpath2sql/internal/ra"
)

// TestViewFollowsSymbolCompaction: standing views cross the epochs that move
// their database onto a compact dictionary by delta — an insert, a delete and
// a text update each — and stay incremental: no Rebuild, no full evaluation,
// the answer equal to a full run on every epoch. Each compaction frees the
// numbers of values the views' materializations held and moves no value they
// hold — not the one the select view selects — and the strings interned next
// take the freed numbers. Every materialization, values included, equals the
// one a view built afresh on the epoch holds: one that kept a freed number, or
// a text update's old value, reads other strings.
func TestViewFollowsSymbolCompaction(t *testing.T) {
	db := NewDB()
	db.Insert("E", 0, 1, "r")
	for k := 2; k <= 21; k++ {
		db.Insert("E", 1, k, fmt.Sprintf("v%d", k))
	}
	db.Insert("E", 1, 22, "keep")
	db.Insert("E", 22, 23, "keep")
	sel := &ra.Program{Stmts: []ra.Stmt{{Name: "result", Plan: ra.Compose{
		L: ra.Fix{Seed: ra.Base{Rel: "E"}},
		R: ra.SelectVal{Child: ra.Base{Rel: "E"}, Val: "keep"},
	}}}, Result: "result"}
	ids := &ra.Program{Stmts: []ra.Stmt{{Name: "result", Plan: ra.Fix{Seed: ra.Base{Rel: "E"}}}}, Result: "result"}
	views := map[string]*ViewState{}
	for name, p := range map[string]*ra.Program{"select": sel, "closure": ids} {
		vs, err := BuildViewState(db, p)
		if err != nil {
			t.Fatal(err)
		}
		views[name] = vs
	}
	full := map[string]Stats{}
	for name, vs := range views {
		full[name] = vs.FullStats
	}
	// step makes the next epoch, applies write to it, compacts its dictionary
	// when compact says so, and advances every view by apply.
	step := func(what string, compact bool, write func(db *DB), apply func(vs *ViewState, db, prev *DB) error) {
		t.Helper()
		prev := db
		db = cowDB(prev)
		write(db)
		if compact {
			live, done := db.ReclaimSymbols(false)
			if !done {
				t.Fatalf("%s: %d of %d symbols live, and no compaction", what, live, prev.Syms.Len())
			}
			r := db.Rels["E"]
			for i, w := range r.rows {
				if was, now := prev.Syms.Str(w.v), db.Syms.Str(w.v); !r.isDead(i) && now != was {
					t.Fatalf("%s: the compaction made symbol %d %q, was %q", what, w.v, now, was)
				}
			}
		}
		for name, vs := range views {
			if err := apply(vs, db, prev); err != nil {
				t.Fatalf("%s: %s view: %v", what, name, err)
			}
			if !vs.Insertable() || vs.FullStats != full[name] {
				t.Fatalf("%s: %s view ran in full (insertable %v)", what, name, vs.Insertable())
			}
			if got, want := vs.AnswerIDs(), fullAnswer(t, db, vs.prog); !slices.Equal(got, want) {
				t.Fatalf("%s: %s view answers %v, a full run %v", what, name, got, want)
			}
			sameMaterializations(t, what+": "+name, vs, db)
		}
	}
	del := func(ids ...int) (func(db *DB), func(vs *ViewState, db, prev *DB) error) {
		return func(db *DB) {
				for _, id := range ids {
					db.Delete("E", db.Parent(id), id)
				}
			}, func(vs *ViewState, db, prev *DB) error {
				_, err := vs.ApplyDelete(db, prev, ids[0], ids)
				return err
			}
	}
	ins := func(edges ...[2]int) (func(db *DB), func(vs *ViewState, db, prev *DB) error) {
		bd := BaseDelta{Rows: map[string][]DeltaEdge{}}
		return func(db *DB) {
				for _, e := range edges {
					v := "keep"
					if e[1]%2 == 1 {
						v = fmt.Sprintf("fresh%d", e[1])
					}
					db.Insert("E", e[0], e[1], v)
					bd.Rows["E"] = append(bd.Rows["E"], DeltaEdge{T: e[1]})
					bd.NewIDs = append(bd.NewIDs, e[1])
				}
			}, func(vs *ViewState, db, _ *DB) error {
				_, err := vs.ApplyInsert(db, bd)
				return err
			}
	}
	w, a := del(2, 3, 4, 5, 6, 7, 8, 9, 10, 11)
	step("delete", false, w, a)
	keep, _ := db.Syms.Lookup("keep")
	w, a = ins([2]int{22, 24}, [2]int{1, 25})
	step("insert across a compaction", true, w, a)
	if now, _ := db.Syms.Lookup("keep"); now != keep {
		t.Fatalf("the compaction moved the selected value from symbol %d to %d", keep, now)
	}
	w, a = ins([2]int{23, 26}, [2]int{22, 27})
	step("insert", false, w, a)
	w, a = del(12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 25)
	step("delete across a compaction", true, w, a)
	// The select view is not text-immune: a text update reruns it. The
	// closure view takes one across a compaction as a repoint.
	delete(views, "select")
	for i := range 6 {
		id := 26
		if i%2 == 1 {
			id = 24
		}
		step(fmt.Sprintf("text update %d across a compaction", i), i == 5,
			func(db *DB) { db.UpdateValue("E", db.Parent(id), id, fmt.Sprintf("text%d", i)) },
			func(vs *ViewState, db, _ *DB) error { return vs.ApplyText(db, id) })
	}
	w, a = ins([2]int{26, 28})
	step("insert after a text update", false, w, a)
}

// sameMaterializations checks that every operator of vs holds what the same
// operator of a view built afresh on db holds, values as strings.
func sameMaterializations(t *testing.T, what string, vs *ViewState, db *DB) {
	t.Helper()
	fresh, err := BuildViewState(db, vs.prog)
	if err != nil {
		t.Fatal(err)
	}
	sorted := func(r *Relation) []Tuple {
		if r == nil {
			return nil
		}
		tuples := r.Tuples()
		slices.SortFunc(tuples, func(a, b Tuple) int {
			return cmp.Or(cmp.Compare(a.F, b.F), cmp.Compare(a.T, b.T))
		})
		return tuples
	}
	var walk func(a, b *viewNode)
	walk = func(a, b *viewNode) {
		for i := range a.kids {
			walk(a.kids[i], b.kids[i])
		}
		for _, r := range [2][2]*Relation{{a.out, b.out}, {a.aux, b.aux}} {
			if got, want := sorted(r[0]), sorted(r[1]); !slices.Equal(got, want) {
				t.Fatalf("%s: %s holds %v, built afresh %v", what, a.plan, got, want)
			}
		}
	}
	for name, st := range vs.stmts {
		walk(st.root, fresh.stmts[name].root)
	}
}

// TestCompactionKeepsSymbols: a compaction frees the numbers dead values held
// and moves no symbol — no element type and no value, not even ones first
// interned after the dead ones — so a node's type, its value and the Labels
// map's symbols read as before, while the dictionary holds fewer strings and
// the image is the same.
func TestCompactionKeepsSymbols(t *testing.T) {
	db := NewDB()
	db.InsertLabeled("Ra", "a", 0, 1, "root")
	for id := 2; id <= 40; id++ {
		db.InsertLabeled("Rb", "b", 1, id, fmt.Sprintf("v%d", id))
	}
	db.InsertLabeled("Rlate", "late", 1, 41, "kept")
	next := cowDB(db)
	for id := 2; id <= 30; id++ {
		next.Delete("Rb", 1, id)
	}
	var before bytes.Buffer
	if err := next.Save(&before); err != nil {
		t.Fatal(err)
	}
	n, late := next.Syms.Held(), next.Labels[41]
	kept, _ := next.Syms.Lookup("kept")
	if live, done := next.ReclaimSymbols(false); !done || next.Syms.Held() != live || live >= n {
		t.Fatalf("%d of %d symbols live: compacted %v to %d", live, n, done, next.Syms.Held())
	}
	if now, _ := next.Syms.Lookup("kept"); now != kept || next.Syms.Str(kept) != "kept" {
		t.Fatalf("the value interned last moved from symbol %d to %d", kept, now)
	}
	if next.Labels[41] != late || next.Syms.Str(late) != "late" {
		t.Fatalf("the late type is symbol %d (%q), was %d", next.Labels[41], next.Syms.Str(next.Labels[41]), late)
	}
	for id := 31; id <= 41; id++ {
		want := "b"
		if id == 41 {
			want = "late"
		}
		if typ, ok := next.Label(id); !ok || typ != want {
			t.Errorf("node %d: type %q (%v), want %q", id, typ, ok, want)
		}
	}
	var after bytes.Buffer
	if err := next.Save(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("the compaction changed the image")
	}
}

// TestCompactionMovesNoSymbol: text updates scattered over a database give
// its nodes fresh values, and the compaction that follows drops the old ones.
// Every live symbol keeps its number and its string, and the compaction
// copies nothing that holds one: each stored relation's version on the new
// dictionary shares its row array, and no row, node-table chunk or directory
// byte is copied. The epoch before reads on undisturbed, and the strings
// interned next take the freed numbers, lowest first, before the dictionary
// grows.
func TestCompactionMovesNoSymbol(t *testing.T) {
	const nodes, updates = 4000, 1500
	db := NewDB()
	db.InsertLabeled("Ra", "a", 0, 1, "root")
	for id := 2; id <= nodes; id++ {
		db.InsertLabeled("Rb", "b", 1, id, fmt.Sprintf("v%d", id))
	}
	var image bytes.Buffer
	if err := db.Save(&image); err != nil {
		t.Fatal(err)
	}
	next := cowDB(db)
	for k, i := range rand.New(rand.NewSource(1)).Perm(nodes - 1)[:updates] {
		next.UpdateValue("Rb", 1, i+2, fmt.Sprintf("fresh%d", k))
	}
	tab := next.nodes.Load().tab
	chunks := map[int]*nodeChunk{}
	tab.eachChunk(func(base int, c *nodeChunk) { chunks[base] = c })
	copied := next.ChunksCopied()
	chunkBytes, dirBytes := next.CatalogBytesCopied()
	rows := map[string]*row{}
	for name, r := range next.Rels {
		rows[name] = &r.rows[0]
	}
	held, n, old := next.Syms.Held(), next.Syms.Len(), next.Syms
	live, done := next.ReclaimSymbols(false)
	if !done || live != held-updates || next.Syms.Held() != live || next.Syms.Len() > n {
		t.Fatalf("%d of %d symbols live over %d numbers: compacted %v, to %d over %d",
			live, held, n, done, next.Syms.Held(), next.Syms.Len())
	}
	next.nodes.Load().tab.eachNode(func(id int, _, val, typ int32) {
		for _, s := range [2]int32{val, typ} {
			if got, want := next.Syms.Str(s), old.Str(s); got != want {
				t.Fatalf("node %d: symbol %d reads %q, read %q", id, s, got, want)
			}
			if got, _ := next.Syms.Lookup(old.Str(s)); got != s {
				t.Fatalf("node %d: %q moved from symbol %d to %d", id, old.Str(s), s, got)
			}
		}
	})
	if next.ChunksCopied() != copied {
		t.Errorf("the compaction copied %d node-table chunks", next.ChunksCopied()-copied)
	}
	if c, d := next.CatalogBytesCopied(); c != chunkBytes || d != dirBytes {
		t.Errorf("the compaction copied %d chunk and %d directory bytes", c-chunkBytes, d-dirBytes)
	}
	next.nodes.Load().tab.eachChunk(func(base int, c *nodeChunk) {
		if chunks[base] != c {
			t.Fatalf("the compaction replaced the node-table chunk at %d", base)
		}
	})
	for name, r := range next.Rels {
		if out, c := r.RowCopies(); &r.rows[0] != rows[name] || out+c != 0 {
			t.Errorf("%s: the compaction copied the rows (%d outside a compaction, %d in one)", name, out, c)
		}
	}
	var after bytes.Buffer
	if err := db.Save(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(image.Bytes(), after.Bytes()) {
		t.Fatal("the epoch before saves another image")
	}
	var free []int32
	for id := 1; id < next.Syms.Len(); id++ {
		if next.Syms.Str(int32(id)) == "" {
			free = append(free, int32(id))
		}
	}
	if len(free) != next.Syms.Len()-live {
		t.Fatalf("%d numbers read as no symbol; want the %d the compaction freed", len(free), next.Syms.Len()-live)
	}
	// A reader resolves each new string as soon as it learns its number,
	// and the live symbols throughout, while the free numbers are refilled.
	type interned struct {
		id int32
		s  string
	}
	learnt, read := make(chan interned, 16), make(chan struct{})
	go func() {
		defer close(read)
		for n := range learnt {
			if got := next.Syms.Str(n.id); got != n.s {
				t.Errorf("symbol %d reads %q to a reader; %q was interned", n.id, got, n.s)
			}
			if got := next.Syms.Str(next.ValSym(2)); got != old.Str(next.ValSym(2)) {
				t.Errorf("node 2's value reads %q to a reader", got)
			}
		}
	}()
	for k, want := range free {
		s := fmt.Sprintf("new%d", k)
		got := next.Syms.Intern(s)
		if got != want {
			t.Errorf("%q took symbol %d; want the free number %d", s, got, want)
		}
		learnt <- interned{got, s}
	}
	close(learnt)
	<-read
	if got, want := next.Syms.Intern("past"), int32(len(free)+live); got != want || next.Syms.Held() != next.Syms.Len() {
		t.Fatalf("with no number free, a string took symbol %d; want %d", got, want)
	}
}

// TestMaterializationsWriteNoSharedRows: an operator that hands back its stored
// operand unchanged — a DescScan over its Alt with no constraint — leaves its
// view a version of that relation, whose rows the epochs share. A text
// update's value and a dictionary compaction's rewrite reach the view, in
// either order, and every epoch before them reads what it read.
func TestMaterializationsWriteNoSharedRows(t *testing.T) {
	p := &ra.Program{Stmts: []ra.Stmt{{Name: "result", Plan: ra.DescScan{From: "a", To: "b", Alt: ra.Base{Rel: "E"}}}}, Result: "result"}
	gone := []int{3, 4, 5, 6, 7, 8}
	text := func(vs *ViewState, db *DB) (*DB, error) {
		next := cowDB(db)
		next.UpdateValue("E", 1, 2, "new")
		return next, vs.ApplyText(next, 2)
	}
	compact := func(vs *ViewState, db *DB) (*DB, error) {
		next := cowDB(db)
		for _, id := range gone {
			next.Delete("E", 1, id)
		}
		if _, done := next.ReclaimSymbols(false); !done {
			t.Fatal("the deletes left no compaction to make")
		}
		_, err := vs.ApplyDelete(next, db, gone[0], gone)
		return next, err
	}
	for _, order := range [][2]func(*ViewState, *DB) (*DB, error){{text, compact}, {compact, text}} {
		db := NewDB()
		db.Insert("E", 0, 1, "r")
		for k := 2; k <= 9; k++ {
			db.Insert("E", 1, k, fmt.Sprintf("v%d", k))
		}
		vs, err := BuildViewState(db, p)
		if err != nil {
			t.Fatal(err)
		}
		epochs, held := []*DB{db}, [][]Tuple{db.Rels["E"].Tuples()}
		for _, step := range order {
			if db, err = step(vs, db); err != nil {
				t.Fatal(err)
			}
			sameMaterializations(t, "a step", vs, db)
			epochs, held = append(epochs, db), append(held, db.Rels["E"].Tuples())
		}
		for i, ep := range epochs {
			if got := ep.Rels["E"].Tuples(); !slices.Equal(got, held[i]) {
				t.Errorf("epoch %d holds %v, held %v before the view wrote", i, got, held[i])
			}
		}
	}
}
