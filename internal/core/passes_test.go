package core

import (
	"strings"
	"testing"

	"xpath2sql/internal/ra"
)

func TestInlineSingleUse(t *testing.T) {
	p := &ra.Program{
		Stmts: []ra.Stmt{
			{Name: "once", Plan: ra.Base{Rel: "A"}},
			{Name: "twice", Plan: ra.Base{Rel: "B"}},
			{Name: "result", Plan: ra.UnionAll{Kids: []ra.Plan{
				ra.Compose{L: ra.Temp{Name: "once"}, R: ra.Temp{Name: "twice"}},
				ra.Temp{Name: "twice"},
			}}},
		},
		Result: "result",
	}
	InlineSingleUse(p)
	if p.Lookup("once") != nil {
		t.Errorf("single-use statement not inlined")
	}
	if p.Lookup("twice") == nil {
		t.Errorf("shared statement wrongly inlined")
	}
	if !strings.Contains(p.Lookup("result").String(), "A") {
		t.Errorf("inlined definition lost: %s", p.Lookup("result"))
	}
}

func TestInlineSingleUseChain(t *testing.T) {
	// a -> b -> c, all single-use: everything folds into result.
	p := &ra.Program{
		Stmts: []ra.Stmt{
			{Name: "a", Plan: ra.Base{Rel: "RA"}},
			{Name: "b", Plan: ra.Compose{L: ra.Temp{Name: "a"}, R: ra.Base{Rel: "RB"}}},
			{Name: "result", Plan: ra.Compose{L: ra.Temp{Name: "b"}, R: ra.Base{Rel: "RC"}}},
		},
		Result: "result",
	}
	InlineSingleUse(p)
	if len(p.Stmts) != 1 {
		t.Fatalf("stmts = %d, want 1: %s", len(p.Stmts), p)
	}
	s := p.Stmts[0].Plan.String()
	for _, rel := range []string{"RA", "RB", "RC"} {
		if !strings.Contains(s, rel) {
			t.Errorf("missing %s in %s", rel, s)
		}
	}
}

func TestExtractCommon(t *testing.T) {
	dup := ra.Compose{L: ra.Base{Rel: "A"}, R: ra.Base{Rel: "B"}}
	p := &ra.Program{
		Stmts: []ra.Stmt{
			{Name: "result", Plan: ra.UnionAll{Kids: []ra.Plan{dup, ra.Semijoin{L: dup, R: ra.Base{Rel: "C"}}}}},
		},
		Result: "result",
	}
	ExtractCommon(p)
	// The duplicated compose must now be a shared temp.
	var cseCount int
	for _, s := range p.Stmts {
		if strings.HasPrefix(s.Name, "cse") {
			cseCount++
		}
	}
	if cseCount != 1 {
		t.Fatalf("cse statements = %d\n%s", cseCount, p)
	}
	if got := strings.Count(p.String(), "(A ⋈ B)"); got != 1 {
		t.Fatalf("duplicate not shared (%d occurrences):\n%s", got, p)
	}
}

func TestExtractCommonReusesExistingStmt(t *testing.T) {
	def := ra.Compose{L: ra.Base{Rel: "A"}, R: ra.Base{Rel: "B"}}
	p := &ra.Program{
		Stmts: []ra.Stmt{
			{Name: "shared", Plan: def},
			{Name: "result", Plan: ra.Semijoin{L: def, R: ra.Temp{Name: "shared"}}},
		},
		Result: "result",
	}
	ExtractCommon(p)
	// The inline duplicate of "shared"'s plan becomes a reference to it, no
	// new cse statement.
	res := p.Lookup("result").String()
	if !strings.Contains(res, "shared") || strings.Contains(res, "(A ⋈ B)") {
		t.Fatalf("existing statement not reused: %s", res)
	}
	for _, s := range p.Stmts {
		if strings.HasPrefix(s.Name, "cse") {
			t.Fatalf("unnecessary cse statement created:\n%s", p)
		}
	}
}

func TestSinkRootThroughCompose(t *testing.T) {
	in := ra.SelectRoot{Child: ra.Compose{L: ra.Base{Rel: "A"}, R: ra.Base{Rel: "B"}}}
	out, _ := sinkRoot(in)
	s := out.String()
	// σ lands on the left input, not the join output.
	if !strings.Contains(s, "σ[F='_'](A)") {
		t.Fatalf("root selection not sunk: %s", s)
	}
	if strings.HasPrefix(s, "σ") {
		t.Fatalf("outer selection should be gone: %s", s)
	}
}

func TestSinkRootIntoFixBecomesStart(t *testing.T) {
	in := ra.SelectRoot{Child: ra.Fix{Seed: ra.Base{Rel: "E"}}}
	out, _ := sinkRoot(in)
	f, ok := out.(ra.Fix)
	if !ok {
		t.Fatalf("got %T", out)
	}
	if _, ok := f.Start.(ra.RootSeed); !ok {
		t.Fatalf("start = %v", f.Start)
	}
}

func TestSinkRootKeepsDiffSubtrahend(t *testing.T) {
	in := ra.SelectRoot{Child: ra.Diff{L: ra.Base{Rel: "A"}, R: ra.Base{Rel: "B"}}}
	out, _ := sinkRoot(in)
	d, ok := out.(ra.Diff)
	if !ok {
		t.Fatalf("got %T", out)
	}
	if !strings.Contains(d.L.String(), "σ[F='_']") {
		t.Fatalf("minuend not restricted: %s", d)
	}
	if strings.Contains(d.R.String(), "σ[F='_']") {
		t.Fatalf("subtrahend must stay unrestricted: %s", d)
	}
}

func TestLeftDeepNormalization(t *testing.T) {
	// A ⋈ (B ⋈ Φ(E)) must become (A ⋈ B) ⋈ Φ with start = A ⋈ B.
	p := &ra.Program{
		Stmts: []ra.Stmt{{Name: "result", Plan: ra.Compose{
			L: ra.Base{Rel: "A"},
			R: ra.Compose{L: ra.Base{Rel: "B"}, R: ra.Fix{Seed: ra.Base{Rel: "E"}}},
		}}},
		Result: "result",
	}
	Optimize(p)
	var fix *ra.Fix
	var find func(pl ra.Plan)
	find = func(pl ra.Plan) {
		if f, ok := pl.(ra.Fix); ok {
			fix = &f
			return
		}
		for _, k := range ra.Inputs(pl) {
			find(k)
		}
	}
	for _, s := range p.Stmts {
		find(s.Plan)
	}
	if fix == nil || fix.Start == nil {
		t.Fatalf("fixpoint not seeded:\n%s", p)
	}
	// The start must reference the composed prefix (A ⋈ B), shared via a
	// temp.
	startName, ok := fix.Start.(ra.Temp)
	if !ok {
		t.Fatalf("start = %v", fix.Start)
	}
	def := p.Lookup(startName.Name)
	if def == nil || !strings.Contains(def.String(), "A") || !strings.Contains(def.String(), "B") {
		t.Fatalf("start temp %s = %v", startName.Name, def)
	}
}
