package rdb

import (
	"fmt"
	"math/rand"
	"testing"

	"xpath2sql/internal/difftest"
	"xpath2sql/internal/ra"
)

// The pooled execution-state tests: an ExecState reused across requests must
// be observationally identical to a fresh Exec per request, and the warm
// serial path must not allocate beyond the arena contract.

// TestPooledExecDifferential reuses one pooled state across 1k randomized
// programs and databases, comparing every answer against a fresh executor's.
// Reuse patterns are randomized too: the state is sometimes released and
// re-acquired, sometimes rebound to a different DB — of its own interner, or
// another epoch of a chain sharing one, which keeps the arena's temporaries —
// so stale-arena bugs (relations, row buffers, dedup scratch, R_id leaking
// across requests) surface as tuple diffs.
func TestPooledExecDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	dbs := []*DB{randDB(r, 8, 3), randDB(r, 12, 3), randDB(r, 5, 3)}
	for i := 0; i < 4; i++ {
		dbs = append(dbs, nextEpoch(r, dbs[len(dbs)-1], i))
	}
	st := AcquireState(dbs[0])
	for i := 0; i < 1000; i++ {
		db := dbs[r.Intn(len(dbs))]
		p := difftest.Program(r, 3, graphOps)

		fresh := NewExec(db)
		want, wantErr := fresh.Run(p)

		if r.Intn(4) == 0 {
			st.Release()
			st = AcquireState(db)
		} else if st.lastDB != db {
			st.Release()
			st = AcquireState(db)
		}
		got, gotErr := st.Exec().Run(p)

		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("case %d: fresh err %v, pooled err %v", i, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		wt, gt := canonTuples(want.Tuples()), canonTuples(got.Tuples())
		if fmt.Sprint(wt) != fmt.Sprint(gt) {
			t.Fatalf("case %d: pooled answer diverged\nprogram:\n%s\nfresh:  %v\npooled: %v", i, p, wt, gt)
		}
	}
	st.Release()
}

// nextEpoch derives the next epoch of db, store-style: one relation cloned,
// some of its edges deleted and others added, over db's interner, with values
// db has never held.
func nextEpoch(r *rand.Rand, db *DB, k int) *DB {
	nd := db.Derive()
	name := fmt.Sprintf("R%d", r.Intn(3))
	rel := nd.Rels[name].Clone()
	nd.Rels[name] = rel
	for _, w := range rel.Tuples() {
		if r.Intn(3) == 0 {
			nd.Delete(name, w.F, w.T)
		}
	}
	n := nd.MaxNodeID()
	for i := 0; i < 4; i++ {
		nd.Insert(name, r.Intn(n+1), 1+r.Intn(n+4), fmt.Sprintf("e%d-%d", k, i))
	}
	return nd
}

// recursiveProgram is a small but representative serving plan: a typed edge
// union, a start-constrained fixpoint filtered by a semijoin, and a compose.
func recursiveProgram() *ra.Program {
	edges := ra.UnionAll{Kids: []ra.Plan{ra.Base{Rel: "R0"}, ra.Base{Rel: "R1"}}}
	return &ra.Program{
		Stmts: []ra.Stmt{
			{Name: "s0", Plan: edges},
			{Name: "s1", Plan: ra.Fix{Seed: ra.Temp{Name: "s0"}, Start: ra.RootSeed{}}},
			{Name: "s2", Plan: ra.Semijoin{L: ra.Temp{Name: "s1"}, R: ra.Base{Rel: "R2"}}},
			{Name: "s3", Plan: ra.Compose{L: ra.Temp{Name: "s2"}, R: ra.Base{Rel: "R1"}}},
		},
		Result: "s3",
	}
}

// TestWarmExecAllocs is the steady-state allocation guard from the serving
// SLO: a warm pooled serial execution of a recursive program performs at
// most 2 allocations per run (ISSUE 7 acceptance criterion).
func TestWarmExecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; alloc bounds need a normal build")
	}
	r := rand.New(rand.NewSource(11))
	db := randDB(r, 200, 3)
	p := recursiveProgram()

	st := AcquireState(db)
	if _, err := st.Exec().Run(p); err != nil {
		t.Fatal(err)
	}
	st.Release()

	allocs := testing.AllocsPerRun(50, func() {
		s := AcquireState(db)
		if _, err := s.Exec().Run(p); err != nil {
			t.Fatal(err)
		}
		s.Release()
	})
	if allocs > 2 {
		t.Fatalf("warm pooled serial run allocates %.1f times per request, want <= 2", allocs)
	}
}

// TestWarmExecAllocsAcrossEpochs holds a warm read that alternates between
// two epochs of one store — a DB and one derived from it, sharing its
// interner — to TestWarmExecAllocs's bound: the rebind keeps the arena's
// temporaries.
func TestWarmExecAllocsAcrossEpochs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; alloc bounds need a normal build")
	}
	r := rand.New(rand.NewSource(11))
	db := randDB(r, 200, 3)
	epochs := []*DB{db, nextEpoch(r, db, 0)}
	p := recursiveProgram()
	run := func(db *DB) {
		s := AcquireState(db)
		if _, err := s.Exec().Run(p); err != nil {
			t.Fatal(err)
		}
		s.Release()
	}
	for _, db := range epochs {
		run(db)
	}
	allocs := testing.AllocsPerRun(50, func() {
		for _, db := range epochs {
			run(db)
		}
	})
	if perRun := allocs / float64(len(epochs)); perRun > 2 {
		t.Fatalf("a warm pooled run alternating between two epochs allocates %.1f times, want <= 2", perRun)
	}
}

// TestPooledKeySetsStartEmpty: a request's temporary asked only for
// membership builds a key set (Relation.members) that the next request, which
// the arena hands the same relation with other rows of the same count, must
// not read: the witnesses of one selection leaking into the next would keep
// rows the next one's witnesses do not.
func TestPooledKeySetsStartEmpty(t *testing.T) {
	db := NewDB()
	for k := 1; k <= 20; k++ {
		db.Insert("R0", 0, k, "")
	}
	for k := 1; k <= 10; k++ {
		v := "a"
		if k > 5 {
			v = "b"
		}
		db.Insert("R1", k, 100+k, v)
	}
	st := AcquireState(db)
	for round, v := range []string{"a", "a", "b", "b", "a"} { // the arena hands temporaries out LIFO
		p := prog(ra.Semijoin{L: ra.Base{Rel: "R0"}, R: ra.SelectVal{Child: ra.Base{Rel: "R1"}, Val: v}})
		want, err := NewExec(db).Run(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.Exec().Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if w, g := canonTuples(want.Tuples()), canonTuples(got.Tuples()); fmt.Sprint(w) != fmt.Sprint(g) {
			t.Fatalf("round %d (%q): pooled %v, fresh %v", round, v, g, w)
		}
		st.Release()
		st = AcquireState(db)
	}
	st.Release()
}
