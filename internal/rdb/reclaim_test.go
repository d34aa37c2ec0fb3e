package rdb

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"testing"

	"xpath2sql/internal/ra"
)

// TestViewFollowsSymbolRemap: standing views cross the epochs that move their
// database onto a compact dictionary by delta — an insert, a delete and a text
// update each — and stay incremental: no Rebuild, no full evaluation, the
// answer equal to a full run on every epoch. Each compaction moves a value
// the views' materializations hold — the first one the value the select view
// selects — and every materialization, values included, equals the one a view
// built afresh on the epoch holds: one left on the old numbers, or on a text
// update's old value, reads other strings.
func TestViewFollowsSymbolRemap(t *testing.T) {
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
			moved := false
			r := prev.Rels["E"]
			for i, w := range r.rows {
				to := db.remap.to[w.v]
				moved = moved || !r.isDead(i) && to >= 0 && to != w.v
			}
			if !moved {
				t.Fatalf("%s: the compaction moved no value the new epoch holds", what)
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
	if now, _ := db.Syms.Lookup("keep"); now == keep {
		t.Fatalf("the compaction left the selected value at symbol %d", keep)
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

// TestCompactionKeepsTypes: a compaction moves values into the numbers dead
// values left, and no element type — not even one first interned after them
// — so a node's type and the Labels map's symbols read as before, while the
// dictionary shrinks and the image is the same.
func TestCompactionKeepsTypes(t *testing.T) {
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
	n, late := next.Syms.Len(), next.Labels[41]
	if live, done := next.ReclaimSymbols(false); !done || next.Syms.Len() >= n {
		t.Fatalf("%d of %d symbols live: compacted %v to %d", live, n, done, next.Syms.Len())
	}
	if kept, _ := next.Syms.Lookup("kept"); kept == next.remap.from.clean.Load().ids["kept"] {
		t.Fatalf("the value interned last kept its number %d", kept)
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
