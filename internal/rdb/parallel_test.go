package rdb

import (
	"context"
	"math/rand"
	"testing"

	"xpath2sql/internal/ra"
)

// diamond builds a program with a diamond dependency: two independent
// branches joined at the top.
func diamondProgram() *ra.Program {
	return &ra.Program{
		Stmts: []ra.Stmt{
			{Name: "left", Plan: ra.Fix{Seed: ra.Base{Rel: "E"}}},
			{Name: "right", Plan: ra.Compose{L: ra.Base{Rel: "E"}, R: ra.Base{Rel: "E"}}},
			{Name: "unused", Plan: ra.Fix{Seed: ra.Base{Rel: "BIG"}}},
			{Name: "result", Plan: ra.UnionAll{Kids: []ra.Plan{
				ra.Temp{Name: "left"}, ra.Temp{Name: "right"},
			}}},
		},
		Result: "result",
	}
}

func TestRunParallelMatchesSerial(t *testing.T) {
	db := chainDB(30, [2]int{30, 5}, [2]int{12, 3})
	for i := 1; i < 10; i++ {
		db.Insert("BIG", i, i+1, "")
	}
	p := diamondProgram()
	serialEx := NewExec(db)
	serial, err := serialEx.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		par, stats, err := RunParallelWith(context.Background(), db, p, RunConfig{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if par.Len() != serial.Len() {
			t.Fatalf("workers=%d: %d tuples vs %d", workers, par.Len(), serial.Len())
		}
		for _, tp := range serial.Tuples() {
			if !par.Has(tp.F, tp.T) {
				t.Fatalf("workers=%d: missing %+v", workers, tp)
			}
		}
		// The unused statement must not run (reachability pruning).
		if stats.StmtsRun != 3 {
			t.Fatalf("workers=%d: ran %d statements, want 3", workers, stats.StmtsRun)
		}
	}
}

func TestRunParallelErrors(t *testing.T) {
	db := chainDB(3)
	bad := &ra.Program{
		Stmts:  []ra.Stmt{{Name: "result", Plan: ra.Temp{Name: "ghost"}}},
		Result: "result",
	}
	if _, _, err := RunParallelWith(context.Background(), db, bad, RunConfig{Workers: 4}); err == nil {
		t.Fatal("unknown dependency accepted")
	}
	cyc := &ra.Program{
		Stmts: []ra.Stmt{
			{Name: "a", Plan: ra.Temp{Name: "b"}},
			{Name: "b", Plan: ra.Temp{Name: "a"}},
			{Name: "result", Plan: ra.Temp{Name: "a"}},
		},
		Result: "result",
	}
	if _, _, err := RunParallelWith(context.Background(), db, cyc, RunConfig{Workers: 4}); err == nil {
		t.Fatal("cycle accepted")
	}
	noResult := &ra.Program{Result: "nope"}
	if _, _, err := RunParallelWith(context.Background(), db, noResult, RunConfig{Workers: 4}); err == nil {
		t.Fatal("missing result accepted")
	}
	dup := &ra.Program{
		Stmts: []ra.Stmt{
			{Name: "x", Plan: ra.Base{Rel: "E"}},
			{Name: "x", Plan: ra.Base{Rel: "E"}},
		},
		Result: "x",
	}
	if _, _, err := RunParallelWith(context.Background(), db, dup, RunConfig{Workers: 4}); err == nil {
		t.Fatal("duplicate statement accepted")
	}
}

// TestRunParallelManyStatements stresses scheduling with a wide fan-in.
func TestRunParallelManyStatements(t *testing.T) {
	db := chainDB(20)
	var stmts []ra.Stmt
	var kids []ra.Plan
	for i := 0; i < 40; i++ {
		name := "s" + string(rune('A'+i%26)) + string(rune('0'+i/26))
		stmts = append(stmts, ra.Stmt{Name: name, Plan: ra.Compose{L: ra.Base{Rel: "E"}, R: ra.Base{Rel: "E"}}})
		kids = append(kids, ra.Temp{Name: name})
	}
	stmts = append(stmts, ra.Stmt{Name: "result", Plan: ra.UnionAll{Kids: kids}})
	p := &ra.Program{Stmts: stmts, Result: "result"}
	rel, stats, err := RunParallelWith(context.Background(), db, p, RunConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() == 0 {
		t.Fatal("empty result")
	}
	if stats.StmtsRun != 41 {
		t.Fatalf("ran %d statements", stats.StmtsRun)
	}
}

// TestSchedulerDoesTheSerialWorkOnDescScan: with the interval kernel usable,
// the statements only a DescScan's fixpoint alternative mentions are dead —
// the lazy serial executor never reaches them — and the scheduler must not
// run them either: every counter but the morsel count agrees.
func TestSchedulerDoesTheSerialWorkOnDescScan(t *testing.T) {
	altOnly := 0
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		nRels := 1 + r.Intn(3)
		td := makeTree(r, 4+r.Intn(30), nRels)
		p := randTreeProgram(r, nRels, true)
		serial := NewExec(td.db)
		want, err := serial.Run(p)
		if err != nil {
			t.Fatalf("seed %d: serial: %v", seed, err)
		}
		got, stats, err := RunParallelWith(context.Background(), td.db, p, RunConfig{Workers: 4})
		if err != nil {
			t.Fatalf("seed %d: scheduler: %v", seed, err)
		}
		if !sameTuples(want.Tuples(), got.Tuples()) {
			t.Fatalf("seed %d: scheduler answer differs from serial\n%s", seed, p)
		}
		ss, ps := serial.Stats, *stats
		ss.Morsels, ps.Morsels = 0, 0
		if ss != ps {
			t.Fatalf("seed %d: scheduler did other work than the serial executor\n%sserial:    %+v\nscheduler: %+v", seed, p, ss, ps)
		}
		// How often the property had something to say: a run that skipped a
		// statement the full dependency walk reaches.
		if reachable(p) > ss.StmtsRun {
			altOnly++
		}
	}
	if altOnly == 0 {
		t.Fatal("no generated program had an Alt-only statement: the test compared nothing")
	}
}

// reachable counts the statements ra.TempRefs reaches from the result.
func reachable(p *ra.Program) int {
	seen := map[string]bool{}
	var walk func(name string)
	walk = func(name string) {
		if seen[name] {
			return
		}
		seen[name] = true
		for _, d := range ra.TempRefs(p.Lookup(name)) {
			walk(d)
		}
	}
	walk(p.Result)
	return len(seen)
}

// TestSchedulerEvaluatesAltWhenKernelBails: the dependency walk skipped the
// alternative's statements because the kernel looked usable; a relation the
// encoding turns out not to cover makes it bail at run time, and the
// statement's own executor then evaluates what the alternative needs.
func TestSchedulerEvaluatesAltWhenKernelBails(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	td := makeTree(r, 25, 1)
	db := cowDB(td.db)
	db.Insert("R0", 1, 99, "") // stored after the encoding was built
	p := &ra.Program{
		Stmts: []ra.Stmt{
			{Name: "edges", Plan: ra.Base{Rel: "R0"}},
			{Name: "result", Plan: ra.DescScan{From: "R0", To: "R0", Alt: ra.Fix{Seed: ra.Temp{Name: "edges"}}}},
		},
		Result: "result", DTDFP: db.DTDFP,
	}
	serial := NewExec(db)
	want, err := serial.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Stats.DescScans != 0 || serial.Stats.LFPs != 1 {
		t.Fatalf("serial stats %+v: the kernel was meant to bail to the fixpoint", serial.Stats)
	}
	got, stats, err := RunParallelWith(context.Background(), db, p, RunConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !sameTuples(want.Tuples(), got.Tuples()) {
		t.Fatalf("scheduler answered %v after the kernel bailed, serial %v", canonTuples(got.Tuples()), canonTuples(want.Tuples()))
	}
	if stats.StmtsRun != 2 || stats.LFPs != 1 {
		t.Fatalf("scheduler stats %+v, want both statements run and one fixpoint", *stats)
	}
}
