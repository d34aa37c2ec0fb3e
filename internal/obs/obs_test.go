package obs

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"xpath2sql/internal/ra"
)

func TestLimitErrorMatching(t *testing.T) {
	var err error = fmt.Errorf("exec: %w",
		&LimitError{Kind: LimitLFPIters, Stmt: "R_3", Limit: 5, Actual: 6})
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatal("errors.As failed")
	}
	if le.Stmt != "R_3" || le.Kind != LimitLFPIters {
		t.Fatalf("le = %+v", le)
	}
	if !errors.Is(err, ErrLimit) {
		t.Fatal("errors.Is(err, ErrLimit) failed through wrapping")
	}
	// Each kind renders its bound and the statement name.
	for _, e := range []*LimitError{
		{Kind: LimitTuples, Stmt: "s", Limit: 10, Actual: 11},
		{Kind: LimitLFPIters, Stmt: "s", Limit: 1, Actual: 2},
		{Kind: LimitTimeout, Stmt: "s", Limit: int64(time.Second), Actual: int64(2 * time.Second)},
	} {
		if msg := e.Error(); !strings.Contains(msg, `"s"`) {
			t.Errorf("%s message omits statement: %q", e.Kind, msg)
		}
	}
}

func TestLimitsUnlimited(t *testing.T) {
	if !(Limits{}).Unlimited() {
		t.Fatal("zero Limits not unlimited")
	}
	for _, l := range []Limits{{MaxTuples: 1}, {MaxLFPIters: 1}, {Timeout: time.Second}} {
		if l.Unlimited() {
			t.Fatalf("%+v reported unlimited", l)
		}
	}
}

func TestTraceTotalsAndEvent(t *testing.T) {
	var tr Trace
	tr.Add(StmtEvent{Stmt: "a", Ops: OpStats{Joins: 2, TuplesOut: 10}, Wall: time.Millisecond})
	tr.Add(StmtEvent{Stmt: "b", Ops: OpStats{LFPs: 1, LFPIters: 3, TuplesOut: 5}, Wall: 2 * time.Millisecond})
	tot := tr.Totals()
	if tot.Stmts != 2 || tot.Ops.TuplesOut != 15 || tot.Ops.Joins != 2 || tot.Ops.LFPIters != 3 {
		t.Fatalf("totals = %+v", tot)
	}
	if tot.Wall != 3*time.Millisecond {
		t.Fatalf("wall = %v", tot.Wall)
	}
	if ev := tr.Event("b"); ev == nil || ev.Ops.LFPs != 1 {
		t.Fatalf("Event(b) = %+v", ev)
	}
	if tr.Event("zzz") != nil {
		t.Fatal("Event on unknown statement not nil")
	}
}

func TestOpStatsAddSub(t *testing.T) {
	a := OpStats{Joins: 5, Unions: 4, LFPs: 3, LFPIters: 9, RecFixes: 1, TuplesOut: 100}
	b := OpStats{Joins: 2, Unions: 1, LFPIters: 4, TuplesOut: 40}
	c := a
	c.Sub(b)
	c.Add(b)
	if c != a {
		t.Fatalf("Add∘Sub not identity: %+v vs %+v", c, a)
	}
}

func TestSummary(t *testing.T) {
	var tr Trace
	if s := tr.Summary(5); !strings.Contains(s, "no statements") {
		t.Fatalf("empty summary = %q", s)
	}
	tr.Add(StmtEvent{Stmt: "cheap", Op: "scan", Wall: time.Microsecond})
	tr.Add(StmtEvent{Stmt: "costly", Op: "fix", Wall: time.Second})
	s := tr.Summary(1)
	if !strings.Contains(s, "costly") || strings.Contains(s, "cheap") {
		t.Fatalf("Summary(1) = %q", s)
	}
}

func TestOpKindAndExplain(t *testing.T) {
	kinds := map[string]ra.Plan{
		"scan":       ra.Base{Rel: "A"},
		"temp":       ra.Temp{Name: "x"},
		"ident":      ra.Ident{},
		"identof":    ra.IdentOf{Child: ra.Base{Rel: "A"}},
		"compose":    ra.Compose{L: ra.Base{Rel: "A"}, R: ra.Base{Rel: "B"}},
		"union":      ra.UnionAll{},
		"fix":        ra.Fix{Seed: ra.Base{Rel: "A"}},
		"semijoin":   ra.Semijoin{L: ra.Base{Rel: "A"}, R: ra.Base{Rel: "B"}},
		"antijoin":   ra.Antijoin{L: ra.Base{Rel: "A"}, R: ra.Base{Rel: "B"}},
		"diff":       ra.Diff{L: ra.Base{Rel: "A"}, R: ra.Base{Rel: "B"}},
		"rootseed":   ra.RootSeed{},
		"typefilter": ra.TypeFilter{Child: ra.Base{Rel: "A"}, Rel: "A"},
		"recunion":   ra.RecUnion{},
	}
	for want, pl := range kinds {
		if got := OpKind(pl); got != want {
			t.Errorf("OpKind(%T) = %q, want %q", pl, got, want)
		}
	}

	p := &ra.Program{
		Stmts: []ra.Stmt{
			{Name: "tc", Plan: ra.Fix{Seed: ra.Base{Rel: "E"}}},
			{Name: "skipped", Plan: ra.Base{Rel: "E"}},
			{Name: "result", Plan: ra.Temp{Name: "tc"}},
		},
		Result: "result",
	}
	var tr Trace
	tr.Add(StmtEvent{Stmt: "tc", Op: "fix", In: 7, Out: 28,
		Ops: OpStats{LFPs: 1, LFPIters: 6, TuplesOut: 28}, Wall: time.Millisecond})
	tr.Add(StmtEvent{Stmt: "result", Op: "temp", In: 28, Out: 28})
	text := Explain(p, &tr, nil)
	for _, want := range []string{"tc", "fix", "in=7", "out=28", "iters=6", "(not run)", "result:"} {
		if !strings.Contains(text, want) {
			t.Fatalf("Explain missing %q:\n%s", want, text)
		}
	}
	// Without a trace, Explain still renders the plan shape.
	if text := Explain(p, nil, nil); !strings.Contains(text, "tc") {
		t.Fatalf("traceless Explain = %q", text)
	}
}
