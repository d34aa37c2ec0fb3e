package sqlbe_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"xpath2sql/internal/backend"
	"xpath2sql/internal/backend/fakedb"
	"xpath2sql/internal/backend/sqlbe"
	"xpath2sql/internal/core"
	"xpath2sql/internal/difftest"
	"xpath2sql/internal/dtd"
	"xpath2sql/internal/obs"
	"xpath2sql/internal/ra"
	"xpath2sql/internal/rdb"
	"xpath2sql/internal/shred"
	"xpath2sql/internal/workload"
	"xpath2sql/internal/xmlgen"
	"xpath2sql/internal/xmltree"
	"xpath2sql/internal/xpath"
)

var allStrategies = []core.Strategy{core.StrategyCycleEX, core.StrategyCycleE, core.StrategySQLGenR}

func openBackend(t *testing.T, name string) *sqlbe.Backend {
	t.Helper()
	dsn := "memory://sqlbe-" + name
	fakedb.Reset(dsn)
	be, err := sqlbe.Open(context.Background(), fakedb.DriverName, dsn, sqlbe.Options{})
	if err != nil {
		t.Fatalf("open backend: %v", err)
	}
	t.Cleanup(func() { be.Close(); fakedb.Reset(dsn) })
	return be
}

func makeDoc(t *testing.T, d *dtd.DTD, seed int64, vf func(string, *rand.Rand) string) (*xmltree.Document, *rdb.DB) {
	t.Helper()
	doc, err := xmlgen.Generate(d, xmlgen.Options{
		XL: 6, XR: 3, Seed: seed, MaxNodes: 200, ValueFunc: vf,
	})
	if err != nil {
		t.Fatal(err)
	}
	db, err := shred.Shred(doc, d)
	if err != nil {
		t.Fatal(err)
	}
	return doc, db
}

func runOn(t *testing.T, snap backend.Snapshot, prog *ra.Program, opts backend.ExecOptions) []int {
	t.Helper()
	res, err := snap.Execute(context.Background(), prog, opts)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	return res.IDs
}

// TestEndToEnd shreds a dept document into the SQL backend and checks that
// the rendered WITH RECURSIVE programs of all three strategies, actually
// executed over database/sql, agree with the native oracle and the
// in-process rdb backend.
func TestEndToEnd(t *testing.T) {
	d := workload.Dept()
	doc, db := makeDoc(t, d, 5, difftest.Value)

	be := openBackend(t, "e2e")
	ctx := context.Background()
	if err := be.Load(ctx, db); err != nil {
		t.Fatalf("Load: %v", err)
	}
	snap, err := be.Snapshot(ctx)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	defer snap.Close()

	local := backend.NewLocalDB(db)
	lsnap, err := local.Snapshot(ctx)
	if err != nil {
		t.Fatalf("local Snapshot: %v", err)
	}
	defer lsnap.Close()

	queries := []string{
		"dept//project",
		"dept/course/takenBy/student",
		"//course[.//prereq]",
		"//qualified//course/cno",
		"//student[name][not(sno)]",
		"dept/course/project/pno[text() = 'no-such-value']", // empty answer
		"//prereq//course[cno or title]",
	}
	nonEmpty := 0
	for _, qs := range queries {
		q, err := xpath.Parse(qs)
		if err != nil {
			t.Fatalf("parse %q: %v", qs, err)
		}
		want := difftest.Oracle(q, doc)
		if len(want) > 0 {
			nonEmpty++
		}
		for _, s := range allStrategies {
			r, err := core.Translate(q, d, core.Options{Strategy: s, SQL: core.DefaultSQLOptions()})
			if err != nil {
				t.Fatalf("[%v] Translate(%s): %v", s, qs, err)
			}
			var trace obs.Trace
			got := runOn(t, snap, r.Program, backend.ExecOptions{Trace: &trace})
			if !slices.Equal(got, want) {
				t.Fatalf("[%v] sqlbe %s = %v, want %v\nSQL:\n%s",
					s, qs, got, want, mustSQL(t, r.Program))
			}
			if len(trace.Events) == 0 {
				t.Fatalf("[%v] %s: no trace events recorded", s, qs)
			}
			lgot := runOn(t, lsnap, r.Program, backend.ExecOptions{})
			if !slices.Equal(lgot, got) {
				t.Fatalf("[%v] rdb backend %s = %v, sqlbe = %v", s, qs, lgot, got)
			}
		}
	}
	if nonEmpty < 3 {
		t.Fatalf("only %d queries had non-empty answers; document too small to be meaningful", nonEmpty)
	}
}

// TestScopeRefused: the SQL image carries no interval columns, so a
// document scope cannot be honored — and must not be silently dropped.
func TestScopeRefused(t *testing.T) {
	d := workload.Dept()
	_, db := makeDoc(t, d, 5, nil)
	be := openBackend(t, "scope")
	ctx := context.Background()
	if err := be.Load(ctx, db); err != nil {
		t.Fatal(err)
	}
	snap, err := be.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	q, err := xpath.Parse("dept//course")
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Translate(q, d, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Execute(ctx, res.Program, backend.ExecOptions{Doc: 1}); !errors.Is(err, ra.ErrUnsupportedPlan) {
		t.Fatalf("scoped run on the SQL backend: err = %v, want ErrUnsupportedPlan", err)
	}
	if got := runOn(t, snap, res.Program, backend.ExecOptions{}); len(got) == 0 {
		t.Fatal("the same program unscoped answered empty")
	}
}

func mustSQL(t *testing.T, p *ra.Program) string {
	t.Helper()
	rs, err := p.RenderSQL(ra.SQLRenderOptions{Dialect: ra.DialectDB2})
	if err != nil {
		return fmt.Sprintf("<render error: %v>", err)
	}
	out := ""
	for _, s := range rs.Stmts {
		out += s.SQL + ";\n"
	}
	return out + rs.ResultQuery + ";\n"
}

// TestHostileValues is the escaping property test: text()='c' qualifiers
// whose constants contain quotes, doubled quotes, NULs, newlines and
// invalid UTF-8 must select exactly the same nodes through the rendered SQL
// literal path (escapeSQL) as through the in-process engine and the native
// oracle, and the parameterized INSERT path must have stored them intact.
func TestHostileValues(t *testing.T) {
	hostiles := []string{
		"it's",
		"a''b",
		"nul\x00byte",
		"line\nbreak",
		"bad\xff\xfeutf8",
		"quote-then-nul'\x00",
		"'; DROP TABLE all_nodes; --",
	}
	d := workload.Dept()
	vf := func(typ string, r *rand.Rand) string { return hostiles[r.Intn(len(hostiles))] }
	doc, db := makeDoc(t, d, 2, vf)

	be := openBackend(t, "hostile")
	ctx := context.Background()
	if err := be.Load(ctx, db); err != nil {
		t.Fatalf("Load: %v", err)
	}
	snap, err := be.Snapshot(ctx)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	defer snap.Close()

	local := backend.NewLocalDB(db)
	lsnap, err := local.Snapshot(ctx)
	if err != nil {
		t.Fatalf("local Snapshot: %v", err)
	}
	defer lsnap.Close()

	hits := 0
	for _, h := range hostiles {
		for _, leaf := range []string{"cno", "name", "pno"} {
			q := xpath.Filter{
				P: xpath.Desc{P: xpath.Label{Name: leaf}},
				Q: xpath.QText{C: h},
			}
			want := difftest.Oracle(q, doc)
			if len(want) > 0 {
				hits++
			}
			for _, s := range allStrategies {
				r, err := core.Translate(q, d, core.Options{Strategy: s, SQL: core.DefaultSQLOptions()})
				if err != nil {
					t.Fatalf("[%v] Translate(//%s[text()=%q]): %v", s, leaf, h, err)
				}
				got := runOn(t, snap, r.Program, backend.ExecOptions{})
				if !slices.Equal(got, want) {
					t.Fatalf("[%v] sqlbe //%s[text()=%q] = %v, want %v", s, leaf, h, got, want)
				}
				lgot := runOn(t, lsnap, r.Program, backend.ExecOptions{})
				if !slices.Equal(lgot, got) {
					t.Fatalf("[%v] rdb //%s[text()=%q] = %v, sqlbe = %v", s, leaf, h, lgot, got)
				}
			}
		}
	}
	if hits == 0 {
		t.Fatal("no hostile value matched any node; the escaping path was never exercised")
	}
}

func TestDialectValidation(t *testing.T) {
	dsn := "memory://sqlbe-dialect"
	fakedb.Reset(dsn)
	t.Cleanup(func() { fakedb.Reset(dsn) })

	if _, err := sqlbe.Open(context.Background(), fakedb.DriverName, dsn,
		sqlbe.Options{Dialect: ra.DialectOracle}); !errors.Is(err, sqlbe.ErrExecDialect) {
		t.Fatalf("Oracle dialect: err = %v, want ErrExecDialect", err)
	}
	if _, err := sqlbe.Open(context.Background(), fakedb.DriverName, dsn,
		sqlbe.Options{Dialect: ra.Dialect(99)}); !errors.Is(err, ra.ErrDialect) {
		t.Fatalf("bad dialect: err = %v, want ra.ErrDialect", err)
	}
}

func TestSnapshotLifecycle(t *testing.T) {
	be := openBackend(t, "lifecycle")
	ctx := context.Background()

	if _, err := be.Snapshot(ctx); !errors.Is(err, backend.ErrNoData) {
		t.Fatalf("Snapshot before Load: err = %v, want ErrNoData", err)
	}

	d := workload.Dept()
	_, db := makeDoc(t, d, 1, nil)
	if err := be.Load(ctx, db); err != nil {
		t.Fatalf("Load: %v", err)
	}
	s1, err := be.Snapshot(ctx)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if s1.Epoch() != 1 {
		t.Fatalf("first epoch = %d, want 1", s1.Epoch())
	}
	// Reload: same backend, next epoch, still answers queries.
	if err := be.Load(ctx, db); err != nil {
		t.Fatalf("second Load: %v", err)
	}
	s2, err := be.Snapshot(ctx)
	if err != nil {
		t.Fatalf("second Snapshot: %v", err)
	}
	if s2.Epoch() != 2 {
		t.Fatalf("second epoch = %d, want 2", s2.Epoch())
	}
	q, _ := xpath.Parse("dept//project")
	r, err := core.Translate(q, d, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Execute(ctx, r.Program, backend.ExecOptions{}); err != nil {
		t.Fatalf("Execute after reload: %v", err)
	}

	if err := be.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := be.Close(); !errors.Is(err, backend.ErrClosed) {
		t.Fatalf("double Close: err = %v, want ErrClosed", err)
	}
	if _, err := be.Snapshot(ctx); !errors.Is(err, backend.ErrClosed) {
		t.Fatalf("Snapshot after Close: err = %v, want ErrClosed", err)
	}
	if err := be.Load(ctx, db); !errors.Is(err, backend.ErrClosed) {
		t.Fatalf("Load after Close: err = %v, want ErrClosed", err)
	}
	if _, err := s2.Execute(ctx, r.Program, backend.ExecOptions{}); !errors.Is(err, backend.ErrClosed) {
		t.Fatalf("Execute after Close: err = %v, want ErrClosed", err)
	}
}

func TestLimits(t *testing.T) {
	be := openBackend(t, "limits")
	ctx := context.Background()
	d := workload.Dept()
	doc, db := makeDoc(t, d, 5, nil)
	if err := be.Load(ctx, db); err != nil {
		t.Fatalf("Load: %v", err)
	}
	snap, err := be.Snapshot(ctx)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	q, _ := xpath.Parse("dept//course")
	if len(difftest.Oracle(q, doc)) < 2 {
		t.Fatal("test document too small to exercise limits")
	}
	r, err := core.Translate(q, d, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	_, err = snap.Execute(ctx, r.Program, backend.ExecOptions{Limits: obs.Limits{MaxTuples: 1}})
	var lerr *obs.LimitError
	if !errors.As(err, &lerr) || lerr.Kind != obs.LimitTuples {
		t.Fatalf("MaxTuples=1: err = %v, want LimitError{Kind: MaxTuples}", err)
	}
	if !errors.Is(err, obs.ErrLimit) {
		t.Fatalf("limit error does not unwrap to obs.ErrLimit: %v", err)
	}

	_, err = snap.Execute(ctx, r.Program, backend.ExecOptions{Limits: obs.Limits{Timeout: time.Nanosecond}})
	if !errors.As(err, &lerr) || lerr.Kind != obs.LimitTimeout {
		t.Fatalf("Timeout=1ns: err = %v, want LimitError{Kind: Timeout}", err)
	}

	// Unlimited run still works on the same snapshot.
	if _, err := snap.Execute(ctx, r.Program, backend.ExecOptions{}); err != nil {
		t.Fatalf("unlimited run: %v", err)
	}
}

// TestMaxLFPItersPushdown: the recursion-depth limit is enforced by the
// database itself — the rendered session statement caps the recursive CTE,
// and the database's refusal comes back as the engine's typed LimitError —
// rather than by any client-side row counting.
func TestMaxLFPItersPushdown(t *testing.T) {
	be := openBackend(t, "lfpiters")
	ctx := context.Background()
	d := workload.Dept()

	// A prereq chain 12 courses deep: the descendant closure needs ~12
	// fixpoint rounds, far above the tight limit and far below the loose one.
	inner := ""
	for i := 12; i >= 1; i-- {
		inner = fmt.Sprintf("<course><cno>c%d</cno><title>t%d</title><prereq>%s</prereq><takenBy></takenBy></course>", i, i, inner)
	}
	doc, err := xmltree.Parse("<dept>" + inner + "</dept>")
	if err != nil {
		t.Fatal(err)
	}
	db, err := shred.Shred(doc, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := be.Load(ctx, db); err != nil {
		t.Fatalf("Load: %v", err)
	}
	snap, err := be.Snapshot(ctx)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	defer snap.Close()

	q, _ := xpath.Parse("dept//course")
	want := difftest.Oracle(q, doc)
	if len(want) != 12 {
		t.Fatalf("oracle found %d courses, want 12", len(want))
	}
	r, err := core.Translate(q, d, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	_, err = snap.Execute(ctx, r.Program, backend.ExecOptions{Limits: obs.Limits{MaxLFPIters: 1}})
	var lerr *obs.LimitError
	if !errors.As(err, &lerr) || lerr.Kind != obs.LimitLFPIters {
		t.Fatalf("MaxLFPIters=1: err = %v, want LimitError{Kind: LFPIters}", err)
	}
	if !errors.Is(err, obs.ErrLimit) {
		t.Fatalf("limit error does not unwrap to obs.ErrLimit: %v", err)
	}

	// A generous limit changes nothing about the answer, and the session
	// setting does not leak into later unlimited runs on the pooled conns.
	for _, limits := range []obs.Limits{{MaxLFPIters: 100}, {}} {
		res, err := snap.Execute(ctx, r.Program, backend.ExecOptions{Limits: limits})
		if err != nil {
			t.Fatalf("limits %+v: %v", limits, err)
		}
		if !slices.Equal(res.IDs, want) {
			t.Fatalf("limits %+v: got %v, want %v", limits, res.IDs, want)
		}
	}
}

// TestConcurrentRuns executes the same program from many goroutines over one
// backend: per-run temp prefixes must keep the statement sequences disjoint
// in fakedb's shared namespace.
func TestConcurrentRuns(t *testing.T) {
	be := openBackend(t, "concurrent")
	ctx := context.Background()
	d := workload.Dept()
	doc, db := makeDoc(t, d, 5, nil)
	if err := be.Load(ctx, db); err != nil {
		t.Fatalf("Load: %v", err)
	}
	snap, err := be.Snapshot(ctx)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	q, _ := xpath.Parse("//course[.//prereq]//student")
	r, err := core.Translate(q, d, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := difftest.Oracle(q, doc)
	errc := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			res, err := snap.Execute(ctx, r.Program, backend.ExecOptions{})
			if err != nil {
				errc <- err
				return
			}
			if !slices.Equal(res.IDs, want) {
				errc <- fmt.Errorf("got %v, want %v", res.IDs, want)
				return
			}
			errc <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-errc; err != nil {
			t.Fatalf("concurrent run: %v", err)
		}
	}
}
