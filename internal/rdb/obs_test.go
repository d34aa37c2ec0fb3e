package rdb

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"xpath2sql/internal/obs"
	"xpath2sql/internal/ra"
)

// traceProg is a small multi-statement program: a transitive closure feeding
// a join, so the trace has distinct ops and nested statement references.
func traceProg() *ra.Program {
	return &ra.Program{
		Stmts: []ra.Stmt{
			{Name: "tc", Plan: ra.Fix{Seed: ra.Base{Rel: "E"}}},
			{Name: "hop", Plan: ra.Compose{L: ra.Temp{Name: "tc"}, R: ra.Base{Rel: "E"}}},
			{Name: "result", Plan: ra.UnionAll{Kids: []ra.Plan{ra.Temp{Name: "tc"}, ra.Temp{Name: "hop"}}}},
		},
		Result: "result",
	}
}

func TestTraceEventsMatchStats(t *testing.T) {
	db := chainDB(8)
	ex := NewExec(db)
	var tr obs.Trace
	if _, err := ex.RunCtx(context.Background(), traceProg(), &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != ex.Stats.StmtsRun {
		t.Fatalf("events = %d, StmtsRun = %d", len(tr.Events), ex.Stats.StmtsRun)
	}
	// Exclusive per-statement accounting: event sums equal global counters.
	tot := tr.Totals()
	if got, want := tot.Ops, ex.Stats.Ops(); got != want {
		t.Fatalf("trace totals %+v != stats %+v", got, want)
	}
	byName := map[string]obs.StmtEvent{}
	for _, ev := range tr.Events {
		byName[ev.Stmt] = ev
	}
	// The fixpoint's event carries its iteration count and the closure size.
	tc := byName["tc"]
	if tc.Op != "fix" || tc.Ops.LFPs != 1 || tc.Ops.LFPIters == 0 {
		t.Fatalf("tc event = %+v", tc)
	}
	if tc.Out != 7*8/2 { // closure of a 7-edge chain: n(n+1)/2 pairs
		t.Fatalf("tc out = %d", tc.Out)
	}
	// Nested work (evaluating "tc" on behalf of "hop") is charged to "tc"
	// alone: the union statement performs no joins or fixpoints.
	res := byName["result"]
	if res.Ops.Joins != 0 || res.Ops.LFPs != 0 {
		t.Fatalf("union charged nested work: %+v", res.Ops)
	}
	// Explain renders one line per statement plus a footer.
	text := obs.Explain(traceProg(), &tr, nil)
	for _, want := range []string{"tc", "hop", "result", "fix", "union", "iters"} {
		if !strings.Contains(text, want) {
			t.Fatalf("Explain missing %q:\n%s", want, text)
		}
	}
}

// TestCancelDuringFix: cancelling the context mid-fixpoint returns promptly
// with context.Canceled. The chain is long enough that its unbounded
// transitive closure (quadratic in the chain length) takes many seconds.
func TestCancelDuringFix(t *testing.T) {
	db := chainDB(4000)
	ex := NewExec(db)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	t0 := time.Now()
	_, err := ex.RunCtx(ctx, prog(ra.Fix{Seed: ra.Base{Rel: "E"}}), nil)
	elapsed := time.Since(t0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, not prompt", elapsed)
	}
	// The executor stays usable after a cancelled run.
	if _, err := ex.RunCtx(context.Background(), prog(ra.Base{Rel: "E"}), nil); err != nil {
		t.Fatalf("executor unusable after cancel: %v", err)
	}
}

func TestDeadlinePassthrough(t *testing.T) {
	db := chainDB(4000)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := NewExec(db).RunCtx(ctx, prog(ra.Fix{Seed: ra.Base{Rel: "E"}}), nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestTimeoutLimit(t *testing.T) {
	db := chainDB(4000)
	ex := NewExec(db)
	ex.Limits = obs.Limits{Timeout: 5 * time.Millisecond}
	_, err := ex.RunCtx(context.Background(), prog(ra.Fix{Seed: ra.Base{Rel: "E"}}), nil)
	var le *obs.LimitError
	if !errors.As(err, &le) || le.Kind != obs.LimitTimeout {
		t.Fatalf("err = %v, want timeout LimitError", err)
	}
	if !errors.Is(err, obs.ErrLimit) {
		t.Fatalf("LimitError does not unwrap to ErrLimit")
	}
}

func TestMaxLFPItersNamesStatement(t *testing.T) {
	db := chainDB(10)
	p := &ra.Program{
		Stmts:  []ra.Stmt{{Name: "closure", Plan: ra.Fix{Seed: ra.Base{Rel: "E"}}}},
		Result: "closure",
	}
	ex := NewExec(db)
	ex.Limits = obs.Limits{MaxLFPIters: 1}
	_, err := ex.RunCtx(context.Background(), p, nil)
	var le *obs.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want *obs.LimitError", err)
	}
	if le.Kind != obs.LimitLFPIters || le.Stmt != "closure" {
		t.Fatalf("LimitError = %+v, want LFP-iters limit naming \"closure\"", le)
	}
	// A closure that genuinely converges in one iteration is unaffected.
	ex2 := NewExec(chainDB(2))
	ex2.Limits = obs.Limits{MaxLFPIters: 1}
	if _, err := ex2.RunCtx(context.Background(), p, nil); err != nil {
		t.Fatalf("one-iteration closure tripped the limit: %v", err)
	}
}

func TestMaxLFPItersRecUnion(t *testing.T) {
	db := NewDB()
	db.Insert("Rd", 0, 1, "")
	db.Insert("Rc", 1, 2, "")
	db.Insert("Rc", 2, 3, "")
	db.Insert("Rc", 3, 4, "")
	rec := ra.RecUnion{
		Init:  []ra.Tagged{{Tag: "c", Plan: ra.Compose{L: ra.IdentOf{Child: ra.Base{Rel: "Rd"}}, R: ra.Base{Rel: "Rc"}}}},
		Edges: []ra.RecEdge{{FromTag: "c", ToTag: "c", Rel: ra.Base{Rel: "Rc"}}},
	}
	ex := NewExec(db)
	ex.Limits = obs.Limits{MaxLFPIters: 1}
	_, err := ex.RunCtx(context.Background(), prog(rec), nil)
	var le *obs.LimitError
	if !errors.As(err, &le) || le.Kind != obs.LimitLFPIters {
		t.Fatalf("err = %v, want LFP-iters LimitError from RecUnion", err)
	}
}

func TestMaxTuples(t *testing.T) {
	db := chainDB(200)
	ex := NewExec(db)
	ex.Limits = obs.Limits{MaxTuples: 50}
	_, err := ex.RunCtx(context.Background(), prog(ra.Fix{Seed: ra.Base{Rel: "E"}}), nil)
	var le *obs.LimitError
	if !errors.As(err, &le) || le.Kind != obs.LimitTuples {
		t.Fatalf("err = %v, want tuple-count LimitError", err)
	}
	if le.Actual <= le.Limit {
		t.Fatalf("LimitError counts wrong: %+v", le)
	}
}

// TestMaxTuplesWhateverTheProgramShape: the tuple bound holds on programs with
// no fixpoint to check it between iterations — a lone statement, a chain whose
// statements all start (lazily, from the result down) before any has produced
// a tuple, a union of two.
func TestMaxTuplesWhateverTheProgramShape(t *testing.T) {
	db := chainDB(50)
	hop := func(l ra.Plan) ra.Plan { return ra.Compose{L: l, R: ra.Base{Rel: "E"}} }
	limits := obs.Limits{MaxTuples: 10}
	for name, p := range map[string]*ra.Program{
		"single statement": prog(hop(ra.Base{Rel: "E"})),
		"chain": {Result: "result", Stmts: []ra.Stmt{
			{Name: "a", Plan: hop(ra.Base{Rel: "E"})},
			{Name: "b", Plan: hop(ra.Temp{Name: "a"})},
			{Name: "result", Plan: hop(ra.Temp{Name: "b"})},
		}},
		"union": {Result: "result", Stmts: []ra.Stmt{
			{Name: "a", Plan: hop(ra.Base{Rel: "E"})},
			{Name: "b", Plan: hop(hop(ra.Base{Rel: "E"}))},
			{Name: "result", Plan: ra.UnionAll{Kids: []ra.Plan{ra.Temp{Name: "a"}, ra.Temp{Name: "b"}}}},
		}},
	} {
		ex := NewExec(db)
		ex.Limits = limits
		_, err := ex.RunCtx(context.Background(), p, nil)
		var le *obs.LimitError
		if !errors.As(err, &le) || le.Kind != obs.LimitTuples || le.Limit != int64(limits.MaxTuples) || le.Actual <= le.Limit {
			t.Errorf("%s: err = %v, want a tuple-count LimitError over %d", name, err, limits.MaxTuples)
		}
	}
}

// TestParallelTraceDeterministic: the trace lists the statements in one
// order, round after round.
func TestParallelTraceDeterministic(t *testing.T) {
	db := chainDB(40, [2]int{40, 7})
	p := &ra.Program{
		Stmts: []ra.Stmt{
			{Name: "tc", Plan: ra.Fix{Seed: ra.Base{Rel: "E"}}},
			{Name: "back", Plan: ra.Compose{L: ra.Base{Rel: "E"}, R: ra.Base{Rel: "E"}}},
			{Name: "result", Plan: ra.UnionAll{Kids: []ra.Plan{ra.Temp{Name: "tc"}, ra.Temp{Name: "back"}}}},
		},
		Result: "result",
	}
	var ref []string
	for round := 0; round < 5; round++ {
		var tr obs.Trace
		ex := NewExec(db)
		rel, err := ex.RunCtx(context.Background(), p, &tr)
		if err != nil {
			t.Fatal(err)
		}
		if rel.Len() == 0 || ex.Stats.TuplesOut == 0 {
			t.Fatalf("round %d: empty result", round)
		}
		var names []string
		for _, ev := range tr.Events {
			names = append(names, ev.Stmt)
		}
		if round == 0 {
			ref = names
			continue
		}
		if fmt.Sprint(names) != fmt.Sprint(ref) {
			t.Fatalf("round %d: nondeterministic order %v vs %v", round, names, ref)
		}
	}
}

// TestParallelLimits: the fixpoint bounds trip between rounds of a running
// fixpoint, after it has produced tuples, not before it starts.
func TestParallelLimits(t *testing.T) {
	p := prog(ra.Fix{Seed: ra.Base{Rel: "E"}})
	run := func(limits obs.Limits) (Stats, error) {
		ex := NewExec(chainDB(200))
		ex.Limits = limits
		_, err := ex.RunCtx(context.Background(), p, nil)
		return ex.Stats, err
	}
	stats, err := run(obs.Limits{MaxLFPIters: 5})
	var le *obs.LimitError
	if !errors.As(err, &le) || le.Kind != obs.LimitLFPIters || le.Actual != 6 {
		t.Fatalf("err = %v, want an LFP-iters LimitError at round 6", err)
	}
	if stats.LFPIters != 6 || stats.TuplesOut <= 199 {
		t.Fatalf("stats %+v: want five rounds run past the seed's 199 tuples", stats)
	}
	stats, err = run(obs.Limits{MaxTuples: 1000})
	if !errors.As(err, &le) || le.Kind != obs.LimitTuples || le.Actual <= 1000 {
		t.Fatalf("err = %v, want a tuple-count LimitError over 1000", err)
	}
	if stats.LFPIters < 2 {
		t.Fatalf("stats %+v: the tuple bound tripped before the second round", stats)
	}
}

// TestParallelCancel: a context cancelled at a fixed check inside a long
// fixpoint — the 50th, rounds before the closure of the 4000-node chain ends
// — stops the run at that round with context.Canceled.
func TestParallelCancel(t *testing.T) {
	ex := NewExec(chainDB(4000))
	ctx := &countdownCtx{Context: context.Background()}
	ctx.left.Store(50)
	t0 := time.Now()
	_, err := ex.RunCtx(ctx, prog(ra.Fix{Seed: ra.Base{Rel: "E"}}), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(t0); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if it := ex.Stats.LFPIters; it < 40 || it > 50 {
		t.Fatalf("stats %+v: want the cancel to land in round 40–50 of the fixpoint", ex.Stats)
	}
}

// countdownCtx is a context whose Err turns context.Canceled at its n-th
// call, n the initial left: a cancel at a fixed point of a run, whatever the
// scheduler does.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestMaxTuplesTripsInsideKernelLoops: the staircase scan and the existence
// probe check the bounds (the tuple count and the deadline alike) every
// checkEvery sources, so a tuple bound trips part way through one operator
// over 400 disjoint sources — not after it has produced everything.
func TestMaxTuplesTripsInsideKernelLoops(t *testing.T) {
	db := NewDB()
	for id := 1; id <= 400*6; id += 6 {
		db.Insert("R0", 0, id, "")
		for c := 1; c <= 5; c++ {
			db.Insert("R1", id, id+c, "")
		}
	}
	db.DTDFP = "fp"
	db.RebuildIntervals()
	// R0's rows all have F = 0: a one-F context. Alt is exact here (every R1
	// node is a child of an R0 node), though the kernel answers.
	desc := ra.DescScan{From: "R0", To: "R1", Alt: ra.Base{Rel: "R1"}, Start: ra.Base{Rel: "R0"}}
	for name, c := range map[string]struct {
		plan       ra.Plan
		max, whole int
	}{
		"staircase": {ra.Compose{L: ra.Base{Rel: "R0"}, R: desc}, 100, 2000},
		"existence": {ra.Semijoin{L: ra.Base{Rel: "R0"}, R: desc}, 10, 400},
	} {
		p := prog(c.plan)
		p.DTDFP = db.DTDFP
		ex := NewExec(db)
		ex.Limits = obs.Limits{MaxTuples: c.max}
		_, err := ex.Run(p)
		var le *obs.LimitError
		if !errors.As(err, &le) || le.Kind != obs.LimitTuples || le.Actual >= int64(c.whole) {
			t.Errorf("%s: err = %v, want a tuple-count LimitError before all %d tuples", name, err, c.whole)
		}
		if ex.Stats.DescScans != 1 {
			t.Errorf("%s: the kernel did not run: %+v", name, ex.Stats)
		}
	}
}
