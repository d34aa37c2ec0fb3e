package main

import (
	"context"
	"crypto/sha256"
	"strings"
	"testing"

	"xpath2sql"
	"xpath2sql/internal/workload"
)

func deptDTD(t *testing.T) *xpath2sql.DTD {
	t.Helper()
	d, err := xpath2sql.ParseDTD(workload.DeptText)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// queryStream renders the first n queries of a seed's stream as one string.
func queryStream(seed int64, n int) string {
	g := newQueryGen(workload.GedML(), seed)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(g.next())
		b.WriteByte('\n')
	}
	return b.String()
}

func TestQueryStreamIsSeeded(t *testing.T) {
	a, b, c := queryStream(7, 500), queryStream(7, 500), queryStream(8, 500)
	if a != b {
		t.Error("the same seed gave two different query streams")
	}
	if a == c {
		t.Error("different seeds gave the same query stream")
	}
}

// TestQueryStreamIsDistinctAndTranslatable: no query repeats (so the plan
// cache misses on each) and every one parses and translates (so none fails
// in a run). The full 20k pool is checked for distinctness, a sample of it
// through the translator.
func TestQueryStreamIsDistinctAndTranslatable(t *testing.T) {
	d := workload.GedML()
	g := newQueryGen(d, subSeed(3, "translate-queries"))
	eng := xpath2sql.New(d, xpath2sql.WithCacheSize(0))
	seen := make(map[string]bool, translatePool)
	for i := 0; i < translatePool; i++ {
		qs := g.next()
		if seen[qs] {
			t.Fatalf("query %d repeats: %s", i, qs)
		}
		seen[qs] = true
		q, err := xpath2sql.ParseQuery(qs)
		if err != nil {
			t.Fatalf("query %d %q does not parse: %v", i, qs, err)
		}
		if i%40 != 0 {
			continue
		}
		tr, err := eng.Translate(context.Background(), q)
		if err != nil {
			t.Fatalf("query %d %q does not translate: %v", i, qs, err)
		}
		if sql, err := tr.SQL(xpath2sql.DialectDB2); err != nil || sql == "" {
			t.Fatalf("query %d %q does not render: %v", i, qs, err)
		}
	}
}

// updateStream renders n operations of an update stream, acknowledging every
// insert with a made-up node ID the way a server would.
func updateStream(seed int64, n int) string {
	g := newUpdateGen(seed, "c0", 1, []int{5, 9, 13})
	var b strings.Builder
	nextID := 1000
	for i := 0; i < n; i++ {
		u := g.next()
		b.Write(updateBody(u))
		b.WriteByte('\n')
		if u.kind == updInsert {
			g.inserted(nextID)
			nextID += courseFragmentElems
		}
	}
	return b.String()
}

func TestUpdateStreamIsSeededAndNeverDeletesAStranger(t *testing.T) {
	a, b, c := updateStream(11, 400), updateStream(11, 400), updateStream(12, 400)
	if a != b {
		t.Error("the same seed gave two different update streams")
	}
	if a == c {
		t.Error("different seeds gave the same update stream")
	}
	g := newUpdateGen(5, "c1", 1, []int{5})
	mine := map[int]bool{}
	kinds := map[int]int{}
	nextID := 100
	for i := 0; i < 4000; i++ {
		u := g.next()
		kinds[u.kind]++
		switch u.kind {
		case updInsert:
			mine[nextID] = true
			g.inserted(nextID)
			nextID += courseFragmentElems
		case updDelete:
			if !mine[u.node] {
				t.Fatalf("op %d deletes node %d, which this stream never inserted (or already deleted)", i, u.node)
			}
			delete(mine, u.node)
		}
	}
	// 2:1:1, loosely: the draw is random and early deletes turn into inserts.
	if kinds[updInsert] < 1800 || kinds[updDelete] < 800 || kinds[updText] < 800 {
		t.Errorf("mix of 4000 updates is %v, want about 2000 inserts, 1000 deletes, 1000 text updates", kinds)
	}
}

func TestCourseFragmentSize(t *testing.T) {
	doc, err := xpath2sql.ParseXML(courseFragment("x"))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Size() != courseFragmentElems {
		t.Errorf("the fragment has %d elements, courseFragmentElems says %d", doc.Size(), courseFragmentElems)
	}
}

func collectionImage(t *testing.T, seed int64) [sha256.Size]byte {
	t.Helper()
	c, err := buildCollection(deptDTD(t), seed, 4, 300)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := imageHash(c.db)
	if err != nil {
		t.Fatal(err)
	}
	// Documents sit in the collection back to back, in ID order.
	next := 1
	for i, doc := range c.docs {
		if doc.root != next || doc.offset != next-1 || doc.elems != doc.doc.Size() {
			t.Fatalf("document %d: root %d offset %d elems %d, want root %d", i, doc.root, doc.offset, doc.elems, next)
		}
		next += doc.elems
	}
	if c.db.NumNodes() != next-1 {
		t.Fatalf("collection has %d nodes, its documents %d", c.db.NumNodes(), next-1)
	}
	return sum
}

func TestCollectionIsSeeded(t *testing.T) {
	a, b, c := collectionImage(t, 21), collectionImage(t, 21), collectionImage(t, 22)
	if a != b {
		t.Error("the same seed gave two different collections")
	}
	if a == c {
		t.Error("different seeds gave the same collection")
	}
}

// TestDeptSizeIsPinned: documents of different seeds must be of one size, or
// runs on different seeds could not be compared.
func TestDeptSizeIsPinned(t *testing.T) {
	d := deptDTD(t)
	var sizes []int64
	for seed := int64(1); seed <= 6; seed++ {
		text, st, err := generateDept(d, seed, 20000)
		if err != nil {
			t.Fatal(err)
		}
		again, _, _ := generateDept(d, seed, 20000)
		if text != again {
			t.Fatalf("seed %d generated two different documents", seed)
		}
		sizes = append(sizes, st.Elements)
		if st.Elements < 19000 || st.Elements > 21000 {
			t.Errorf("seed %d: %d elements, want 20000 within 5%%", seed, st.Elements)
		}
	}
	if sizes[0] == sizes[1] && sizes[1] == sizes[2] && sizes[2] == sizes[3] {
		t.Errorf("sizes %v: different seeds should not give identical documents", sizes)
	}
}

func TestSubSeedsAreIndependent(t *testing.T) {
	if subSeed(1, "a") == subSeed(1, "b") || subSeed(1, "a") == subSeed(2, "a") {
		t.Error("subSeed collides on neighbouring inputs")
	}
	if subSeed(1, "a") != subSeed(1, "a") || subSeed(1, "a") < 0 {
		t.Error("subSeed must be a non-negative pure function")
	}
}
