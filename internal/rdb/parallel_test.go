package rdb

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"xpath2sql/internal/difftest"
	"xpath2sql/internal/obs"
	"xpath2sql/internal/ra"
)

// Exec.Parallelism only splits a large operator input into morsels, whose
// buffers are merged in morsel order; statements run one after another on
// one executor at every worker count. So a run at any worker count is the serial
// run: tuple for tuple in row order, trace event for trace event, counter for
// counter but the morsel count.

// workerRun is what one run shows: its error, its tuples in row order, its
// trace events without wall times and its counters, both without the morsel
// count, which is kept apart.
type workerRun struct {
	err     string
	tuples  []Tuple
	events  []obs.StmtEvent
	stats   Stats
	morsels int
}

// runAtWorkers runs p on a pooled state, the serving path, at the given
// parallelism, interval mode and document scope.
func runAtWorkers(db *DB, p *ra.Program, mode IntervalMode, doc, workers int) workerRun {
	st := AcquireState(db)
	defer st.Release()
	ex := st.Exec()
	ex.Parallelism, ex.IntervalMode, ex.Doc = workers, mode, doc
	var tr obs.Trace
	rel, err := ex.RunCtx(context.Background(), p, &tr)
	out := workerRun{stats: ex.Stats, morsels: ex.Stats.Morsels}
	out.stats.Morsels = 0
	if err != nil {
		out.err = err.Error()
	} else {
		out.tuples = rel.Tuples()
	}
	for _, ev := range tr.Events {
		ev.Wall, ev.Ops.Morsels = 0, 0
		out.events = append(out.events, ev)
	}
	return out
}

// differs describes how b departs from a, or returns "".
func (a workerRun) differs(b workerRun) string {
	switch {
	case a.err != b.err:
		return fmt.Sprintf("errors differ: %q, %q", a.err, b.err)
	case fmt.Sprint(a.tuples) != fmt.Sprint(b.tuples):
		return fmt.Sprintf("tuples differ:\n  %v\n  %v", a.tuples, b.tuples)
	case fmt.Sprint(a.events) != fmt.Sprint(b.events):
		return fmt.Sprintf("trace events differ:\n  %+v\n  %+v", a.events, b.events)
	case a.stats != b.stats:
		return fmt.Sprintf("stats differ:\n  %+v\n  %+v", a.stats, b.stats)
	}
	return ""
}

// TestWorkerCountsAgree runs random programs — every operator (graphOps),
// DescScan on both physical paths (treeProgram), the staircase and
// existence uses of the interval kernel (kernelProgram) — over random forests
// at parallelism 1, 2 and 4 with morsels of four rows, scoped to a document
// and not, under IntervalAuto and IntervalOff. Every run must show what the
// serial run shows.
func TestWorkerCountsAgree(t *testing.T) {
	forceTinyMorsels(t)
	fanned := 0
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nRels := 1 + r.Intn(3)
		nDocs := 1 + r.Intn(4)
		db := makeForest(r, nDocs+4+r.Intn(60), nDocs, nRels)
		var p *ra.Program
		switch r.Intn(3) {
		case 0:
			p = difftest.Program(r, nRels, graphOps)
			p.DTDFP = db.DTDFP
		case 1:
			p = treeProgram(r, nRels, true)
		default:
			p = kernelProgram(r, nRels)
		}
		roots := docRoots(db)
		for _, doc := range []int{0, roots[r.Intn(len(roots))]} {
			for _, mode := range []IntervalMode{IntervalAuto, IntervalOff} {
				serial := runAtWorkers(db, p, mode, doc, 1)
				for _, workers := range []int{2, 4} {
					got := runAtWorkers(db, p, mode, doc, workers)
					if msg := serial.differs(got); msg != "" {
						t.Logf("seed=%d, doc %d, %v, parallelism 1 against %d: %s\nprogram:\n%s", seed, doc, mode, workers, msg, p)
						return false
					}
					if got.morsels > 0 {
						fanned++
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if fanned == 0 {
		t.Fatal("no run split an operator into morsels: the test compared serial runs")
	}
}

// diamondProgram has a diamond dependency — two independent branches joined
// at the top — and a statement nothing reads.
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

// TestRunParallelMatchesSerial: the diamond program answers the same at
// parallelism 1, 2 and 8, with morsels of four rows, as the serial run, and
// at no worker count is the unread statement run.
func TestRunParallelMatchesSerial(t *testing.T) {
	forceTinyMorsels(t)
	db := chainDB(30, [2]int{30, 5}, [2]int{12, 3})
	for i := 1; i < 10; i++ {
		db.Insert("BIG", i, i+1, "")
	}
	p := diamondProgram()
	serial, err := NewExec(db).Run(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		ex := NewExec(db)
		ex.Parallelism = workers
		par, err := ex.Run(p)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !sameTuples(serial.Tuples(), par.Tuples()) {
			t.Fatalf("workers=%d: answered %v, serial %v", workers, canonTuples(par.Tuples()), canonTuples(serial.Tuples()))
		}
		if ex.Stats.StmtsRun != 3 {
			t.Fatalf("workers=%d: ran %d statements, want 3", workers, ex.Stats.StmtsRun)
		}
	}
}

// TestSchedulerDoesTheSerialWorkOnDescScan: with the interval kernel usable,
// the statements only a DescScan's fixpoint alternative mentions are dead —
// the lazy executor never reaches them — at parallelism 4 as serially: every
// counter but the morsel count agrees.
func TestSchedulerDoesTheSerialWorkOnDescScan(t *testing.T) {
	forceTinyMorsels(t)
	altOnly := 0
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		nRels := 1 + r.Intn(3)
		td := makeTree(r, 4+r.Intn(30), nRels)
		p := treeProgram(r, nRels, true)
		serial := NewExec(td.db)
		want, err := serial.Run(p)
		if err != nil {
			t.Fatalf("seed %d: serial: %v", seed, err)
		}
		par := NewExec(td.db)
		par.Parallelism = 4
		got, err := par.Run(p)
		if err != nil {
			t.Fatalf("seed %d: parallelism 4: %v", seed, err)
		}
		if !sameTuples(want.Tuples(), got.Tuples()) {
			t.Fatalf("seed %d: answer at parallelism 4 differs from serial\n%s", seed, p)
		}
		ss, ps := serial.Stats, par.Stats
		ss.Morsels, ps.Morsels = 0, 0
		if ss != ps {
			t.Fatalf("seed %d: parallelism 4 did other work than the serial run\n%sserial:        %+v\nparallelism 4: %+v", seed, p, ss, ps)
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

// TestRunCtxErrors: a program the executor cannot run is refused at every
// worker count — an unknown result, a reference to no statement, a cycle,
// two statements of one name (also off the result's path: Lookup would
// silently take the first) — and the state that refused it runs the next
// program as a fresh one would.
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
		for _, workers := range []int{1, 4} {
			st := AcquireState(db)
			ex := st.Exec()
			ex.Parallelism = workers
			if _, err := ex.RunCtx(context.Background(), c.p, nil); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s at parallelism %d: err = %v, want %q", name, workers, err, c.want)
			}
			if rel, err := ex.RunCtx(context.Background(), prog(ra.Compose{L: e, R: e}), nil); err != nil || rel.Len() != 1 {
				t.Errorf("%s at parallelism %d: the next program answered %v, %v", name, workers, rel, err)
			}
			st.Release()
		}
	}
}

// TestKernelBailEvaluatesAlt: a DescScan whose interval kernel turns out
// unusable at run time (a relation node the encoding cannot place) is
// answered by its fixpoint alternative, and the statement only the
// alternative reads is evaluated then, at every worker count.
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
	for _, workers := range []int{1, 4} {
		ex := NewExec(db)
		ex.Parallelism = workers
		got, err := ex.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if !sameTuples(want.Tuples(), got.Tuples()) {
			t.Fatalf("parallelism %d answered %v after the kernel bailed, naive %v", workers, canonTuples(got.Tuples()), canonTuples(want.Tuples()))
		}
		if s := ex.Stats; s.DescScans != 0 || s.LFPs != 1 || s.StmtsRun != 2 {
			t.Fatalf("parallelism %d: stats %+v, want no kernel scan, one fixpoint, both statements run", workers, s)
		}
	}
}
