package xpath2sql_test

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"xpath2sql"
)

func deptSetup(t *testing.T) (*xpath2sql.DTD, *xpath2sql.Document, *xpath2sql.DB) {
	t.Helper()
	d, err := xpath2sql.ParseDTD(deptDTD)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xpath2sql.Generate(d, xpath2sql.GenOptions{XL: 12, XR: 3, Seed: 7, MaxNodes: 4000})
	if err != nil {
		t.Fatal(err)
	}
	db, err := xpath2sql.Shred(doc, d)
	if err != nil {
		t.Fatal(err)
	}
	return d, doc, db
}

// TestEngineAnswerMatchesOracle: the context-first Engine agrees with both
// the native evaluator and the deprecated entry points on the paper's
// Example 3.5 query dept//project.
func TestEngineAnswerMatchesOracle(t *testing.T) {
	d, doc, db := deptSetup(t)
	ctx := context.Background()
	eng := xpath2sql.New(d, xpath2sql.WithStrategy(xpath2sql.StrategyCycleEX))
	tr, err := eng.TranslateString(ctx, "dept//project")
	if err != nil {
		t.Fatal(err)
	}
	ans, err := tr.ExecuteOn(ctx, xpath2sql.NewLocalBackend(db))
	if err != nil {
		t.Fatal(err)
	}
	q, _ := xpath2sql.ParseQuery("dept//project")
	want := xpath2sql.EvalXPath(q, doc)
	if len(ans.IDs) != len(want) {
		t.Fatalf("engine %d answers, oracle %d", len(ans.IDs), len(want))
	}
	for i := range want {
		if ans.IDs[i] != int(want[i]) {
			t.Fatalf("engine %v vs oracle %v", ans.IDs, want)
		}
	}
	if ans.Stats.StmtsRun == 0 || ans.Trace == nil {
		t.Fatalf("answer missing stats/trace: %+v", ans)
	}
}

// TestExplainAccountsForAllWork: Answer.Explain prints one line per RA
// statement, executed statements carry observed cardinalities and iteration
// counts, and the per-statement tuple counts sum exactly to Stats.TuplesOut.
// Translation.Explain renders the bare plan.
func TestExplainAccountsForAllWork(t *testing.T) {
	d, _, db := deptSetup(t)
	ctx := context.Background()
	// Pin the fixpoint path: this test asserts Φ iteration accounting, which
	// the interval kernel would legitimately leave at zero.
	eng := xpath2sql.New(d, xpath2sql.WithIntervalMode(xpath2sql.IntervalOff))
	tr, err := eng.TranslateString(ctx, "dept//project")
	if err != nil {
		t.Fatal(err)
	}
	// Translation.Explain always renders the bare plan.
	if text := tr.Explain(); !strings.Contains(text, "(not run)") {
		t.Fatalf("bare-plan Explain:\n%s", text)
	}
	ans, err := tr.ExecuteOn(ctx, xpath2sql.NewLocalBackend(db))
	if err != nil {
		t.Fatal(err)
	}

	sum := 0
	iters := 0
	for _, ev := range ans.Trace.Events {
		sum += ev.Ops.TuplesOut
		iters += ev.Ops.LFPIters
	}
	if sum != ans.Stats.TuplesOut {
		t.Fatalf("per-statement tuples %d != Stats.TuplesOut %d", sum, ans.Stats.TuplesOut)
	}
	if len(ans.Trace.Events) != ans.Stats.StmtsRun {
		t.Fatalf("%d events, %d statements run", len(ans.Trace.Events), ans.Stats.StmtsRun)
	}
	if iters != ans.Stats.LFPIters || iters == 0 {
		t.Fatalf("trace iterations %d, stats %d", iters, ans.Stats.LFPIters)
	}

	text := ans.Explain()
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	nStmts := len(tr.Program().Stmts)
	if len(lines) != nStmts+1 { // one per statement + the result footer
		t.Fatalf("Explain has %d lines for %d statements:\n%s", len(lines), nStmts, text)
	}
	ran := 0
	for _, l := range lines[:nStmts] {
		if strings.Contains(l, "(not run)") {
			continue
		}
		ran++
		for _, field := range []string{"in=", "out=", "tuples=", "iters="} {
			if !strings.Contains(l, field) {
				t.Fatalf("statement line missing %s: %q", field, l)
			}
		}
	}
	if ran != ans.Stats.StmtsRun {
		t.Fatalf("Explain shows %d executed statements, stats say %d", ran, ans.Stats.StmtsRun)
	}
	if !strings.Contains(lines[nStmts], "result:") {
		t.Fatalf("footer = %q", lines[nStmts])
	}
	// The translation came through a caching engine, so the footer reports
	// the plan cache; the bare plan never does.
	if !strings.Contains(lines[nStmts], "cache:") {
		t.Fatalf("annotated footer missing cache stats: %q", lines[nStmts])
	}
	if strings.Contains(tr.Explain(), "cache:") {
		t.Fatal("bare-plan Explain leaked cache stats")
	}
}

// deepChain builds a DTD a → a and a document nested deep enough that the
// unbounded descendant closure (quadratic in the depth) runs for seconds.
func deepChain(t *testing.T, depth int) (*xpath2sql.DTD, *xpath2sql.DB) {
	t.Helper()
	d, err := xpath2sql.ParseDTD(`<!ELEMENT a (a?)>`)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for i := 0; i < depth; i++ {
		b.WriteString("<a>")
	}
	for i := 0; i < depth; i++ {
		b.WriteString("</a>")
	}
	doc, err := xpath2sql.ParseXML(b.String())
	if err != nil {
		t.Fatal(err)
	}
	db, err := xpath2sql.Shred(doc, d)
	if err != nil {
		t.Fatal(err)
	}
	return d, db
}

// TestEngineCancellation: cancelling mid-fixpoint on a deeply recursive DTD
// returns promptly with context.Canceled.
func TestEngineCancellation(t *testing.T) {
	d, db := deepChain(t, 3000)
	eng := xpath2sql.New(d)
	tr, err := eng.TranslateString(context.Background(), "//a//a")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	t0 := time.Now()
	_, err = tr.ExecuteOn(ctx, xpath2sql.NewLocalBackend(db))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(t0); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, not prompt", elapsed)
	}
}

// TestEngineDeadline: a 1ms context deadline terminates the run early with
// context.DeadlineExceeded; a 1ms Limits.Timeout with a *LimitError.
func TestEngineDeadline(t *testing.T) {
	d, db := deepChain(t, 3000)

	tr, err := xpath2sql.New(d).TranslateString(context.Background(), "//a//a")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := tr.ExecuteOn(ctx, xpath2sql.NewLocalBackend(db)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline err = %v", err)
	}

	eng := xpath2sql.New(d, xpath2sql.WithLimits(xpath2sql.Limits{Timeout: time.Millisecond}))
	tr2, err := eng.TranslateString(context.Background(), "//a//a")
	if err != nil {
		t.Fatal(err)
	}
	_, err = tr2.ExecuteOn(context.Background(), xpath2sql.NewLocalBackend(db))
	var le *xpath2sql.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("timeout err = %v, want *LimitError", err)
	}
	if !errors.Is(err, xpath2sql.ErrLimit) {
		t.Fatal("timeout error does not unwrap to ErrLimit")
	}
}

// TestEngineLFPIterLimit: MaxLFPIters=1 trips on the recursive closure with a
// typed error naming the offending statement.
func TestEngineLFPIterLimit(t *testing.T) {
	d, db := deepChain(t, 50)
	// The interval kernel answers a//a with no Φ iterations, so the limit
	// under test only trips on the pinned fixpoint path.
	eng := xpath2sql.New(d,
		xpath2sql.WithLimits(xpath2sql.Limits{MaxLFPIters: 1}),
		xpath2sql.WithIntervalMode(xpath2sql.IntervalOff))
	tr, err := eng.TranslateString(context.Background(), "a//a")
	if err != nil {
		t.Fatal(err)
	}
	_, err = tr.ExecuteOn(context.Background(), xpath2sql.NewLocalBackend(db))
	var le *xpath2sql.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want *LimitError", err)
	}
	if le.Stmt == "" {
		t.Fatalf("LimitError does not name the statement: %+v", le)
	}
	found := false
	for _, s := range tr.Program().Stmts {
		if s.Name == le.Stmt {
			found = true
		}
	}
	if !found {
		t.Fatalf("LimitError names unknown statement %q", le.Stmt)
	}
}

// TestEngineParallelAgrees: WithParallelism is ignored, so an engine built
// with it runs what the default engine runs: the same answers, the same work
// and a trace.
func TestEngineParallelAgrees(t *testing.T) {
	d, doc, db := deptSetup(t)
	ctx := context.Background()
	serial, err := xpath2sql.New(d).TranslateString(ctx, "dept//course[.//project]")
	if err != nil {
		t.Fatal(err)
	}
	sAns, err := serial.ExecuteOn(ctx, xpath2sql.NewLocalBackend(db))
	if err != nil {
		t.Fatal(err)
	}
	par, err := xpath2sql.New(d, xpath2sql.WithParallelism(4)).TranslateString(ctx, "dept//course[.//project]")
	if err != nil {
		t.Fatal(err)
	}
	pAns, err := par.ExecuteOn(ctx, xpath2sql.NewLocalBackend(db))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sAns.IDs, pAns.IDs) || sAns.Stats != pAns.Stats {
		t.Fatalf("default engine %v %+v, WithParallelism(4) %v %+v", sAns.IDs, sAns.Stats, pAns.IDs, pAns.Stats)
	}
	if len(pAns.Trace.Events) == 0 {
		t.Fatal("the run recorded no trace")
	}
	_ = doc
}

// TestEngineSharedSchemaConcurrent: what an Engine derives from its DTD once
// (core.Schema: graph, reachability lists, component structure — the last two
// filled in on first use) is shared by concurrent translations, and the
// scratch a translation or a rendering recycles (term tables, the renderer's
// buffer) is never shared. With the plan cache off every call translates, so
// goroutines race on a fresh schema; each program, its extended XPath and its
// SQL must print exactly as a fresh engine's serial translation does.
func TestEngineSharedSchemaConcurrent(t *testing.T) {
	d, _, _ := deptSetup(t)
	queries := []string{"dept//project", "dept/course//student[qualified]", "//course[not(.//project)]//cno",
		"dept//prereq/course | dept//takenBy//*", "dept/course[.//prereq/course]//title"}
	ctx := context.Background()
	text := func(tr *xpath2sql.Translation) string {
		sql, err := tr.SQL(xpath2sql.DialectDB2)
		if err != nil {
			t.Error(err)
		}
		return tr.Program().String() + tr.ExtendedXPath().String() + sql
	}
	want := make([]string, len(queries))
	for i, qs := range queries {
		tr, err := xpath2sql.New(d, xpath2sql.WithCacheSize(0)).TranslateString(ctx, qs)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = text(tr)
	}
	eng := xpath2sql.New(d, xpath2sql.WithCacheSize(0))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := (g + i) % len(queries)
				tr, err := eng.TranslateString(ctx, queries[k])
				if err != nil {
					t.Errorf("%q: %v", queries[k], err)
					return
				}
				if got := text(tr); got != want[k] {
					t.Errorf("%q: concurrent translation differs from the serial one\ngot:\n%s\nwant:\n%s", queries[k], got, want[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
