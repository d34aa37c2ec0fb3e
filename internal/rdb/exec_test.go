package rdb

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"xpath2sql/internal/ra"
)

// TestSchedulerDoesTheSerialWorkOnDescScan: with the interval kernel usable,
// the statements only a DescScan's fixpoint alternative mentions are dead —
// the lazy executor never reaches them — and the answer is the eager run's,
// which runs them all.
func TestSchedulerDoesTheSerialWorkOnDescScan(t *testing.T) {
	altOnly := 0
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		nRels := 1 + r.Intn(3)
		td := makeTree(r, 4+r.Intn(30), nRels)
		p := treeProgram(r, nRels, true)
		eager := NewExec(td.db)
		eager.Lazy = false
		want, err := eager.Run(p)
		if err != nil {
			t.Fatalf("seed %d: eager: %v", seed, err)
		}
		ex := NewExec(td.db)
		got, err := ex.Run(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !sameTuples(want.Tuples(), got.Tuples()) {
			t.Fatalf("seed %d: the lazy answer differs from the eager one\n%s", seed, p)
		}
		if ex.Stats.StmtsRun > eager.Stats.StmtsRun || ex.Stats.TuplesOut > eager.Stats.TuplesOut {
			t.Fatalf("seed %d: the lazy run did more than the eager one\n%slazy:  %+v\neager: %+v", seed, p, ex.Stats, eager.Stats)
		}
		// How often the property had something to say: a run that skipped a
		// statement the full dependency walk reaches.
		if reachable(p) > ex.Stats.StmtsRun {
			altOnly++
		}
	}
	if altOnly == 0 {
		t.Fatal("no generated program had an Alt-only statement: the test compared nothing")
	}
}

// reachable counts the statements the temp references reach from the result.
func reachable(p *ra.Program) int {
	seen := map[string]bool{}
	var walkPlan func(pl ra.Plan)
	walk := func(name string) {
		if !seen[name] {
			seen[name] = true
			walkPlan(p.Lookup(name))
		}
	}
	walkPlan = func(pl ra.Plan) {
		if tmp, ok := pl.(ra.Temp); ok {
			walk(tmp.Name)
			return
		}
		for _, k := range ra.AppendInputs(nil, pl) {
			walkPlan(k)
		}
	}
	walk(p.Result)
	return len(seen)
}

// TestRunCtxErrors: a program the executor cannot run is refused — an
// unknown result, a reference to no statement, a cycle, two statements of one
// name (also off the result's path: Lookup would silently take the first) —
// and the state that refused it runs the next program as a fresh one would.
func TestRunCtxErrors(t *testing.T) {
	db := chainDB(3)
	e := ra.Base{Rel: "E"}
	for name, c := range map[string]struct {
		p    *ra.Program
		want string
	}{
		"unknown result": {&ra.Program{Result: "nope"}, "unknown statement"},
		"unknown reference": {&ra.Program{
			Stmts:  []ra.Stmt{{Name: "result", Plan: ra.Temp{Name: "ghost"}}},
			Result: "result",
		}, "unknown statement"},
		"cycle": {&ra.Program{
			Stmts: []ra.Stmt{
				{Name: "a", Plan: ra.Temp{Name: "b"}},
				{Name: "b", Plan: ra.Temp{Name: "a"}},
				{Name: "result", Plan: ra.Temp{Name: "a"}},
			},
			Result: "result",
		}, "cyclic"},
		"duplicate": {&ra.Program{
			Stmts:  []ra.Stmt{{Name: "x", Plan: e}, {Name: "x", Plan: ra.Compose{L: e, R: e}}},
			Result: "x",
		}, "duplicate statement"},
		"duplicate off the result's path": {&ra.Program{
			Stmts:  []ra.Stmt{{Name: "x", Plan: e}, {Name: "y", Plan: e}, {Name: "y", Plan: e}},
			Result: "x",
		}, "duplicate statement"},
	} {
		st := AcquireState(db)
		ex := st.Exec()
		if _, err := ex.RunCtx(context.Background(), c.p, nil); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", name, err, c.want)
		}
		if rel, err := ex.RunCtx(context.Background(), prog(ra.Compose{L: e, R: e}), nil); err != nil || rel.Len() != 1 {
			t.Errorf("%s: the next program answered %v, %v", name, rel, err)
		}
		st.Release()
	}
}

// TestKernelBailEvaluatesAlt: a DescScan whose interval kernel turns out
// unusable at run time (a relation node the encoding cannot place) is
// answered by its fixpoint alternative, and the statement only the
// alternative reads is evaluated then.
func TestKernelBailEvaluatesAlt(t *testing.T) {
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
	want, err := NewNaiveExec(db).Run(p)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExec(db)
	got, err := ex.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !sameTuples(want.Tuples(), got.Tuples()) {
		t.Fatalf("answered %v after the kernel bailed, naive %v", canonTuples(got.Tuples()), canonTuples(want.Tuples()))
	}
	if s := ex.Stats; s.DescScans != 0 || s.LFPs != 1 || s.StmtsRun != 2 {
		t.Fatalf("stats %+v, want no kernel scan, one fixpoint, both statements run", s)
	}
}
