package rdb

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"xpath2sql/internal/ra"
)

// TestIndexBuildCount is the regression test for the seed engine's
// invalidate-on-every-insert behavior: column indexes must be built at most
// once per column per relation snapshot, and interleaved inserts must extend
// them incrementally rather than trigger rebuilds.
func TestIndexBuildCount(t *testing.T) {
	r := NewRelation("r")
	for i := 0; i < 200; i++ {
		r.Add(i, i+1, "")
	}
	if got := r.IndexBuilds(); got != 0 {
		t.Fatalf("IndexBuilds before any probe = %d, want 0", got)
	}
	r.ByF(5)
	if got := r.IndexBuilds(); got != 1 {
		t.Fatalf("IndexBuilds after first ByF = %d, want 1", got)
	}
	// The seed engine rebuilt on the probe after every insert. Interleave
	// adds with probes: the count must not move.
	for i := 0; i < 100; i++ {
		r.Add(1000+i, i, "")
		if ps := r.ByF(1000 + i); len(ps) != 1 {
			t.Fatalf("ByF(%d) after incremental add = %d positions, want 1", 1000+i, len(ps))
		}
		r.ByF(i % 200)
	}
	if got := r.IndexBuilds(); got != 1 {
		t.Fatalf("IndexBuilds after 100 interleaved add/probe rounds = %d, want 1 (no rebuilds)", got)
	}
	r.ByT(3)
	if got := r.IndexBuilds(); got != 2 {
		t.Fatalf("IndexBuilds after first ByT = %d, want 2", got)
	}
	// Incremental extension must be visible through every read path.
	// T=3 so far: (2,3) from the first loop and (1003,3) from the second.
	r.Add(55, 3, "x")
	if ps := r.ByT(3); len(ps) != 3 {
		t.Fatalf("ByT(3) after extension = %d positions, want 3", len(ps))
	}
	if !r.tIndex().contains(3) {
		t.Fatal("contains misses an incrementally indexed key")
	}
	if got := r.IndexBuilds(); got != 2 {
		t.Fatalf("IndexBuilds after extension probes = %d, want 2", got)
	}
}

// TestFixpointIndexBuilds asserts the delta loop of Φ never rebuilds the
// seed relation's indexes: one build per probed column for the whole
// fixpoint, regardless of iteration count.
func TestFixpointIndexBuilds(t *testing.T) {
	db := NewDB()
	for i := 1; i < 60; i++ {
		db.Insert("E", i, i+1, "")
	}
	p := &ra.Program{
		Stmts:  []ra.Stmt{{Name: "c", Plan: ra.Fix{Seed: ra.Base{Rel: "E"}}}},
		Result: "c",
	}
	out, err := NewExec(db).Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if want := 59 * 60 / 2; out.Len() != want {
		t.Fatalf("closure size = %d, want %d", out.Len(), want)
	}
	if got := db.Rel("E").IndexBuilds(); got > 2 {
		t.Fatalf("seed relation rebuilt indexes %d times during fixpoint, want ≤ 2 (one per column)", got)
	}
}

func TestTIDsSortedAndDeduped(t *testing.T) {
	r := NewRelation("r")
	ins := []int{9, 3, 3, 7, 1, 9, 4}
	for i, v := range ins {
		r.Add(i, v, "")
	}
	want := []int{1, 3, 4, 7, 9}
	for pass := 0; pass < 2; pass++ { // second pass hits the built index
		got := r.TIDs()
		if len(got) != len(want) {
			t.Fatalf("pass %d: TIDs = %v, want %v", pass, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("pass %d: TIDs = %v, want %v", pass, got, want)
			}
		}
		r.ByT(3) // force index build between passes
	}
	// Extend after the index is built: merged result must stay sorted.
	r.Add(100, 2, "")
	r.Add(101, 8, "")
	got := r.TIDs()
	if !sort.IntsAreSorted(got) {
		t.Fatalf("TIDs after incremental adds not sorted: %v", got)
	}
	if len(got) != 7 {
		t.Fatalf("TIDs after incremental adds = %v, want 7 distinct", got)
	}
}

func TestPairSet(t *testing.T) {
	s := newPairSet(0)
	r := rand.New(rand.NewSource(7))
	ref := map[uint64]struct{}{}
	for i := 0; i < 5000; i++ {
		f, tt := int32(r.Intn(300)), int32(r.Intn(300))
		k := packPair(f, tt)
		_, dup := ref[k]
		ref[k] = struct{}{}
		if isNew := s.insert(k); isNew == dup {
			t.Fatalf("insert(%d,%d) isNew=%v, want %v", f, tt, isNew, !dup)
		}
	}
	for k := range ref {
		if !s.has(k) {
			t.Fatalf("has(%d) = false after insert", k)
		}
	}
	if s.has(packPair(301, 301)) {
		t.Fatal("has reports never-inserted key")
	}
	// The all-ones key (sentinel) must be storable: (-1, -1) packs to it.
	k := packPair(-1, -1)
	if k != ^uint64(0) {
		t.Fatalf("packPair(-1,-1) = %#x, want all-ones", k)
	}
	if !s.insert(k) || !s.has(k) || s.insert(k) {
		t.Fatal("sentinel-colliding key not handled")
	}
	c := s.clone()
	if !c.has(packPair(-1, -1)) {
		t.Fatal("clone dropped sentinel-colliding key")
	}
	c.insert(packPair(999, 999))
	if s.has(packPair(999, 999)) {
		t.Fatal("clone shares storage with original")
	}
}

func TestInterner(t *testing.T) {
	in := NewInterner()
	if in.Intern("") != 0 {
		t.Fatal(`Intern("") != 0`)
	}
	a := in.Intern("alpha")
	if b := in.Intern("alpha"); b != a {
		t.Fatalf("re-intern gave %d, want %d", b, a)
	}
	if in.Str(a) != "alpha" {
		t.Fatalf("Str(%d) = %q", a, in.Str(a))
	}
	if id, ok := in.Lookup("alpha"); !ok || id != a {
		t.Fatalf("Lookup(alpha) = %d,%v", id, ok)
	}
	if _, ok := in.Lookup("missing"); ok {
		t.Fatal("Lookup(missing) reported present")
	}
	done := make(chan int32, 8)
	for g := 0; g < 8; g++ {
		go func() { done <- in.Intern("shared") }()
	}
	first := <-done
	for g := 1; g < 8; g++ {
		if got := <-done; got != first {
			t.Fatalf("concurrent Intern returned %d and %d for same string", first, got)
		}
	}
}

func TestColIndexSparseKeys(t *testing.T) {
	r := NewRelation("r")
	r.Add(5_000_000, 7_000_000, "") // forces sparse layout: huge key, one row
	r.Add(1, 2, "")
	if ps := r.ByF(5_000_000); len(ps) != 1 {
		t.Fatalf("sparse ByF = %v", ps)
	}
	if ps := r.ByT(7_000_000); len(ps) != 1 {
		t.Fatalf("sparse ByT = %v", ps)
	}
	r.Add(5_000_000, 9, "x")
	if ps := r.ByF(5_000_000); len(ps) != 2 {
		t.Fatalf("sparse ByF after extension = %v", ps)
	}
	got := r.TIDs()
	want := []int{2, 9, 7_000_000}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("sparse TIDs = %v, want %v", got, want)
	}
}

// TestAnswerIDsMatchSort: on random relations — Ts spanning little (a set
// walk), negative, or spanning wide (the sort, as the 7 000 000 key of
// TestColIndexSparseKeys) — TIDs is the T column sorted and compacted, and
// AnswerIDs the same past the virtual root 0.
func TestAnswerIDsMatchSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shapes := []struct {
		name string
		key  func() int32
	}{
		{"dense", func() int32 { return int32(rng.Intn(100)) }},
		{"negative", func() int32 { return int32(rng.Intn(100)) - 50 }},
		{"sparse", func() int32 { return int32(rng.Intn(40)) * 100_003 }},
		{"one far", func() int32 { return []int32{0, 2, 9, 7_000_000}[rng.Intn(4)] }},
	}
	for _, sh := range shapes {
		name, key := sh.name, sh.key
		for _, n := range []int{0, 1, 2, 5, 300} {
			r := NewRelation("r")
			var want []int
			for i := 0; i < n; i++ {
				k := key()
				r.addRow(row{f: int32(i), t: k})
				want = append(want, int(k))
			}
			sort.Ints(want)
			want = slices.Compact(want)
			if got := r.TIDs(); !slices.Equal(got, want) {
				t.Fatalf("%s, %d rows: TIDs %v, want %v", name, n, got, want)
			}
			for len(want) > 0 && want[0] <= 0 {
				want = want[1:]
			}
			if got := r.AnswerIDs(); !slices.Equal(got, want) {
				t.Fatalf("%s, %d rows: AnswerIDs %v, want %v", name, n, got, want)
			}
		}
	}
}

func TestLoaderMatchesInsertLabeled(t *testing.T) {
	mk := func(load func(db *DB)) *DB {
		db := NewDB()
		load(db)
		return db
	}
	a := mk(func(db *DB) {
		for i := 0; i < 50; i++ {
			db.InsertLabeled("R", fmt.Sprintf("n%d", i%5), i, i+1, fmt.Sprintf("v%d", i%3))
		}
	})
	b := mk(func(db *DB) {
		ld := db.NewLoader()
		for i := 0; i < 50; i++ {
			ld.Insert("R", fmt.Sprintf("n%d", i%5), i, i+1, fmt.Sprintf("v%d", i%3))
		}
	})
	if !sameTuples(a.Rel("R").Tuples(), b.Rel("R").Tuples()) {
		t.Fatal("Loader produced different relation content than InsertLabeled")
	}
	for id := 0; id <= 51; id++ {
		la, oka := a.Label(id)
		lb, okb := b.Label(id)
		if la != lb || oka != okb {
			t.Fatalf("node %d: InsertLabeled labels it %q (%v), the Loader %q (%v)", id, la, oka, lb, okb)
		}
	}
	if string(saved(t, a)) != string(saved(t, b)) {
		t.Fatal("Loader produced different node metadata than InsertLabeled")
	}
}

// TestCrossInternerCopy: relations created outside a DB (private interner)
// must still compose correctly with DB relations — symbols are re-mapped
// through strings when interners differ.
func TestCrossInternerCopy(t *testing.T) {
	src := NewRelation("src")
	src.Add(1, 2, "hello")
	dst := NewDB().Rel("dst")
	for _, tp := range src.Tuples() {
		dst.Add(tp.F, tp.T, tp.V)
	}
	got := dst.Tuples()
	if len(got) != 1 || got[0].V != "hello" {
		t.Fatalf("cross-interner copy = %+v", got)
	}
}
