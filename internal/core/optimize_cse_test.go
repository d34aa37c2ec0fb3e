package core_test

import (
	"fmt"
	"testing"

	"xpath2sql/internal/core"
	"xpath2sql/internal/difftest"
	"xpath2sql/internal/dtd"
	"xpath2sql/internal/ra"
	"xpath2sql/internal/workload"
	"xpath2sql/internal/xpath"
)

// cloneProgram copies the statement list; plans are immutable values, and
// ExtractCommon replaces statements' plans, never edits one.
func cloneProgram(p *ra.Program) *ra.Program {
	c := *p
	c.Stmts = append([]ra.Stmt(nil), p.Stmts...)
	return &c
}

// sameAsOracle runs both extractions on copies of p and compares the text; it
// reports whether anything was extracted.
func sameAsOracle(t *testing.T, what string, p *ra.Program) bool {
	t.Helper()
	got, want := cloneProgram(p), cloneProgram(p)
	core.ExtractCommon(got)
	core.ExtractCommonByString(want)
	if got.String() != want.String() {
		t.Fatalf("%s: ExtractCommon differs from the string-keyed oracle\ninput:\n%s\ngot:\n%s\nwant:\n%s", what, p, got, want)
	}
	return len(got.Stmts) != len(p.Stmts)
}

// preCSE translates q up to, not including, ExtractCommon.
func preCSE(t *testing.T, q xpath.Path, d *dtd.DTD, rec core.RecStrategy) *ra.Program {
	t.Helper()
	eq, err := core.XPathToEXp(q, d, rec)
	if err != nil {
		t.Fatalf("XPathToEXp(%s): %v", q, err)
	}
	opts := core.DefaultSQLOptions()
	opts.PushSelections = false
	p, err := core.EXpToSQL(eq, opts)
	if err != nil {
		t.Fatalf("EXpToSQL(%s): %v", q, err)
	}
	core.PushSelections(p)
	return p
}

// TestExtractCommonMatchesStringKeyed: the interner-based ExtractCommon names
// and orders statements exactly as the string-keyed one it replaced
// (optimize_oracle_test.go) did, on 8 000 translated programs — flat and
// nested recursion over the paper's DTDs and six random recursive ones — and
// on merged batch programs.
func TestExtractCommonMatchesStringKeyed(t *testing.T) {
	dtds := map[string]*dtd.DTD{
		"dept": workload.Dept(), "gedml": workload.GedML(), "cross": workload.Cross(), "bioml": workload.BIOML(),
	}
	for seed := int64(1); seed <= 6; seed++ {
		dtds[fmt.Sprintf("rand%d", seed)] = difftest.RecDTD(difftest.Seed(seed)).DTD
	}
	perDTD, batches := 400, 25
	if testing.Short() {
		perDTD, batches = 40, 5
	}
	changed := 0
	for name, d := range dtds {
		r := difftest.Seed(int64(len(name)) * 15485863)
		types := d.Types()
		for i := 0; i < perDTD; i++ {
			q := difftest.Query(r, types, 3)
			for _, rec := range []core.RecStrategy{core.RecFlat, core.RecCycleEX} {
				if sameAsOracle(t, fmt.Sprintf("%s rec=%d %s", name, rec, q), preCSE(t, q, d, rec)) {
					changed++
				}
			}
		}
		for i := 0; i < batches; i++ {
			var results []*core.Result
			for j := 0; j < 4; j++ {
				res, err := core.Translate(difftest.Query(r, types, 3), d, core.DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				results = append(results, res)
			}
			b, err := core.MergeStmts(results)
			if err != nil {
				t.Fatal(err)
			}
			sameAsOracle(t, fmt.Sprintf("%s batch %d", name, i), b.Program)
		}
	}
	if changed < perDTD {
		t.Fatalf("only %d programs had a common sub-plan extracted: the corpus does not exercise ExtractCommon", changed)
	}
}

// TestExtractCommonKeyAttributes: pairs of plans that differ in exactly one
// attribute of the printed form must stay apart, pairs that differ only
// outside it (or only in how a leaf is spelled) must be shared — each against
// the oracle. Dropping TypeFilter.OnF, SelectVal.Val or the Start/End
// presence of Fix/DescScan from the interner's key fails here.
func TestExtractCommonKeyAttributes(t *testing.T) {
	a, b, x := ra.Base{Rel: "R_a"}, ra.Base{Rel: "R_b"}, ra.Temp{Name: "x"}
	pairs := map[string][2]ra.Plan{
		"TypeFilter.OnF":   {ra.TypeFilter{Child: a, Rel: "R_b"}, ra.TypeFilter{Child: a, Rel: "R_b", OnF: true}},
		"TypeFilter.Rel":   {ra.TypeFilter{Child: a, Rel: "R_b"}, ra.TypeFilter{Child: a, Rel: "R_c"}},
		"IdentOf.OnF":      {ra.IdentOf{Child: a}, ra.IdentOf{Child: a, OnF: true}},
		"SelectVal.Val":    {ra.Compose{L: ra.SelectVal{Child: a, Val: "1"}, R: b}, ra.Compose{L: ra.SelectVal{Child: a, Val: "2"}, R: b}},
		"SelectVal.Val/0":  {ra.Compose{L: ra.SelectVal{Child: a, Val: "1\x00"}, R: b}, ra.Compose{L: ra.SelectVal{Child: a, Val: "1"}, R: b}},
		"Fix.Start|End":    {ra.Fix{Seed: a, Start: x}, ra.Fix{Seed: a, End: x}},
		"Fix.Start":        {ra.Fix{Seed: a, Start: x}, ra.Fix{Seed: a}},
		"Fix.End":          {ra.Fix{Seed: a, Start: x, End: x}, ra.Fix{Seed: a, Start: x}},
		"DescScan.Start":   {ra.DescScan{From: "R_a", To: "R_b", Alt: a, Start: x}, ra.DescScan{From: "R_a", To: "R_b", Alt: a, End: x}},
		"DescScan.From":    {ra.DescScan{From: "R_a", To: "R_b", Alt: a}, ra.DescScan{From: "R_b", To: "R_b", Alt: a}},
		"DescScan.To":      {ra.DescScan{From: "R_a", To: "R_b", Alt: a}, ra.DescScan{From: "R_a", To: "R_a", Alt: a}},
		"operator":         {ra.Semijoin{L: a, R: b}, ra.Antijoin{L: a, R: b}},
		"operator/2":       {ra.Compose{L: a, R: b}, ra.Diff{L: a, R: b}},
		"operand order":    {ra.Compose{L: a, R: b}, ra.Compose{L: b, R: a}},
		"union arity":      {ra.UnionAll{Kids: []ra.Plan{a, b}}, ra.UnionAll{Kids: []ra.Plan{a, b, b}}},
		"SelectRoot":       {ra.Compose{L: ra.SelectRoot{Child: a}, R: b}, ra.Compose{L: a, R: b}},
		"RecUnion.Tag":     {ra.RecUnion{Init: []ra.Tagged{{Tag: "p", Plan: a}}}, ra.RecUnion{Init: []ra.Tagged{{Tag: "q", Plan: a}}}},
		"RecUnion.ToTag":   {ra.RecUnion{Init: []ra.Tagged{{Tag: "p", Plan: a}}, Edges: []ra.RecEdge{{FromTag: "p", ToTag: "q", Rel: b}}}, ra.RecUnion{Init: []ra.Tagged{{Tag: "p", Plan: a}}, Edges: []ra.RecEdge{{FromTag: "p", ToTag: "p", Rel: b}}}},
		"RecUnion.split":   {ra.RecUnion{Init: []ra.Tagged{{Tag: "p", Plan: a}, {Tag: "p", Plan: b}}}, ra.RecUnion{Init: []ra.Tagged{{Tag: "p", Plan: a}}, Edges: []ra.RecEdge{{FromTag: "", ToTag: "p", Rel: b}}}},
		"= Fix.Desc":       {ra.Fix{Seed: a, Desc: true}, ra.Fix{Seed: a}},
		"= Fix.TrackPaths": {ra.Fix{Seed: a, TrackPaths: true}, ra.Fix{Seed: a}},
		"= RecUnion.Pairs": {ra.RecUnion{Init: []ra.Tagged{{Tag: "p", Plan: a}}, Pairs: true}, ra.RecUnion{Init: []ra.Tagged{{Tag: "p", Plan: a}}, ResultTag: "p"}},
		"= Base|Temp":      {ra.Compose{L: ra.Base{Rel: "x"}, R: b}, ra.Compose{L: x, R: b}},
		"= Ident|Base":     {ra.IdentOf{Child: ra.Ident{}}, ra.IdentOf{Child: ra.Base{Rel: "Rid"}}},
	}
	for name, pr := range pairs {
		// One plan twice and the other once: sharing the pair makes three
		// references to one statement, keeping it apart makes two and a plan.
		p := &ra.Program{Result: "result", Stmts: []ra.Stmt{
			{Name: "x", Plan: b},
			{Name: "result", Plan: ra.UnionAll{Kids: []ra.Plan{
				ra.SelectRoot{Child: pr[0]}, ra.SelectVal{Child: pr[0], Val: "v"}, ra.SelectRoot{Child: pr[1]},
			}}},
		}}
		sameAsOracle(t, name, p)
		got := cloneProgram(p)
		core.ExtractCommon(got)
		if shared := len(got.Stmts) == 3 && got.Stmts[1].Plan.String() == `(σ[F='_'](cse1) ∪ σ[V="v"](cse1) ∪ σ[F='_'](cse1))`; shared != (name[0] == '=') {
			t.Errorf("%s: shared = %v\n%s", name, shared, got)
		}
	}
}
