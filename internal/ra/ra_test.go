package ra

import (
	"strings"
	"testing"
)

func TestOpCounts(t *testing.T) {
	p := &Program{
		Stmts: []Stmt{
			{Name: "a", Plan: Compose{L: Base{Rel: "R1"}, R: Fix{Seed: Base{Rel: "R2"}}}},
			{Name: "b", Plan: UnionAll{Kids: []Plan{Temp{Name: "a"}, Base{Rel: "R3"}, Base{Rel: "R4"}}}},
			{Name: "result", Plan: Diff{
				L: SelectVal{Child: Temp{Name: "b"}, Val: "x"},
				R: Semijoin{L: Base{Rel: "R5"}, R: Antijoin{L: Base{Rel: "R6"}, R: Base{Rel: "R7"}}},
			}},
		},
		Result: "result",
	}
	c := p.Count()
	if c.LFP != 1 {
		t.Errorf("LFP = %d", c.LFP)
	}
	if c.Joins != 3 { // compose + semijoin + antijoin
		t.Errorf("Joins = %d", c.Joins)
	}
	if c.Unions != 2 { // 3-way union
		t.Errorf("Unions = %d", c.Unions)
	}
	if c.Diffs != 1 || c.Sels != 1 {
		t.Errorf("Diffs=%d Sels=%d", c.Diffs, c.Sels)
	}
	if c.All() != 8 {
		t.Errorf("All = %d", c.All())
	}
}

func TestOpCountsRecUnion(t *testing.T) {
	p := &Program{
		Stmts: []Stmt{{Name: "result", Plan: RecUnion{
			Init:  []Tagged{{Tag: "c", Plan: Base{Rel: "Rc"}}},
			Edges: []RecEdge{{FromTag: "c", ToTag: "c", Rel: Base{Rel: "Rc"}}, {FromTag: "c", ToTag: "s", Rel: Base{Rel: "Rs"}}},
		}}},
		Result: "result",
	}
	c := p.Count()
	if c.RecFix != 1 || c.Joins != 2 || c.Unions != 2 {
		t.Errorf("counts = %+v", c)
	}
}

func TestProgramLookupAndString(t *testing.T) {
	p := &Program{
		Stmts:  []Stmt{{Name: "x", Plan: Base{Rel: "R"}}},
		Result: "x",
	}
	if p.Lookup("x") == nil || p.Lookup("y") != nil {
		t.Fatal("Lookup wrong")
	}
	if !strings.Contains(p.String(), "x ← R") {
		t.Fatalf("String = %q", p.String())
	}
}

func TestSQLRenderBasics(t *testing.T) {
	p := &Program{
		Stmts: []Stmt{
			{Name: "T_a", Plan: Base{Rel: "R_a"}},
			{Name: "result", Plan: SelectRoot{Child: Compose{L: Temp{Name: "T_a"}, R: Base{Rel: "R_b"}}}},
		},
		Result: "result",
	}
	sql := p.SQL(SQLRenderOptions{})
	for _, want := range []string{
		"CREATE TEMPORARY TABLE T_a",
		"CREATE TEMPORARY TABLE result",
		"FROM R_a",
		"JOIN",
		"WHERE q", // root selection predicate
		"SELECT DISTINCT T FROM result;",
	} {
		if !strings.Contains(sql, want) {
			t.Errorf("missing %q in:\n%s", want, sql)
		}
	}
}

func TestSQLRenderFixDialects(t *testing.T) {
	p := &Program{
		Stmts: []Stmt{{Name: "result", Plan: Fix{
			Seed:  Base{Rel: "R_e"},
			Start: Base{Rel: "R_s"},
			End:   Base{Rel: "R_t"},
		}}},
		Result: "result",
	}
	db2 := p.SQL(SQLRenderOptions{Dialect: DialectDB2})
	if !strings.Contains(db2, "WITH RECURSIVE fp") {
		t.Errorf("DB2 rendering missing recursive CTE:\n%s", db2)
	}
	if !strings.Contains(db2, "WHERE s.F IN (SELECT T FROM") {
		t.Errorf("DB2 rendering missing pushed start constraint:\n%s", db2)
	}
	if !strings.Contains(db2, "IN (SELECT F FROM") {
		t.Errorf("DB2 rendering missing pushed end constraint:\n%s", db2)
	}
	ora := p.SQL(SQLRenderOptions{Dialect: DialectOracle})
	if !strings.Contains(ora, "CONNECT BY") || !strings.Contains(ora, "START WITH") {
		t.Errorf("Oracle rendering missing CONNECT BY:\n%s", ora)
	}
}

// TestSQLRenderMaxRecIters: the engine's MaxLFPIters limit is pushed into
// the rendering — DB2 as a session statement, Oracle as an inline LEVEL
// guard — and omitted entirely when the limit is zero.
func TestSQLRenderMaxRecIters(t *testing.T) {
	p := &Program{
		Stmts: []Stmt{{Name: "result", Plan: Fix{
			Seed:  Base{Rel: "R_e"},
			Start: Base{Rel: "R_s"},
			End:   Base{Rel: "R_t"},
		}}},
		Result: "result",
	}

	db2, err := p.RenderSQL(SQLRenderOptions{Dialect: DialectDB2, MaxRecIters: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(db2.Session) != 1 || db2.Session[0] != "SET MAX_RECURSIVE_ITERATIONS = 7" {
		t.Fatalf("DB2 session statements = %q, want the recursion guard", db2.Session)
	}
	if len(db2.SessionReset) != 1 || db2.SessionReset[0] != "SET MAX_RECURSIVE_ITERATIONS = 0" {
		t.Fatalf("DB2 session reset = %q, want the guard restored to unbounded", db2.SessionReset)
	}

	ora, err := p.RenderSQL(SQLRenderOptions{Dialect: DialectOracle, MaxRecIters: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(ora.Session) != 0 {
		t.Fatalf("Oracle session statements = %q, want none (guard is inline)", ora.Session)
	}
	if sql := p.SQL(SQLRenderOptions{Dialect: DialectOracle, MaxRecIters: 7}); !strings.Contains(sql, "AND LEVEL <= 7") {
		t.Fatalf("Oracle rendering missing inline LEVEL guard:\n%s", sql)
	}

	unlimited, err := p.RenderSQL(SQLRenderOptions{Dialect: DialectDB2})
	if err != nil {
		t.Fatal(err)
	}
	if len(unlimited.Session) != 0 {
		t.Fatalf("unlimited DB2 rendering produced session statements %q", unlimited.Session)
	}
	if sql := p.SQL(SQLRenderOptions{Dialect: DialectOracle}); strings.Contains(sql, "LEVEL <=") {
		t.Fatalf("unlimited Oracle rendering carries a LEVEL guard:\n%s", sql)
	}
}

func TestSQLRenderRecUnionFig2(t *testing.T) {
	p := &Program{
		Stmts: []Stmt{{Name: "result", Plan: RecUnion{
			Init: []Tagged{{Tag: "c", Plan: Compose{L: IdentOf{Child: Base{Rel: "R_d"}}, R: Base{Rel: "R_c"}}}},
			Edges: []RecEdge{
				{FromTag: "c", ToTag: "c", Rel: Base{Rel: "R_c"}},
				{FromTag: "c", ToTag: "s", Rel: Base{Rel: "R_s"}},
				{FromTag: "s", ToTag: "c", Rel: Base{Rel: "R_c"}},
				{FromTag: "c", ToTag: "p", Rel: Base{Rel: "R_p"}},
				{FromTag: "p", ToTag: "c", Rel: Base{Rel: "R_c"}},
			},
			ResultTag: "p",
		}}},
		Result: "result",
	}
	sql := p.SQL(SQLRenderOptions{})
	// Fig 2's shape: a recursive CTE with Rid tags, one select per edge,
	// and the final Rid = 'p' selection.
	if !strings.Contains(sql, "WITH RECURSIVE R (F, T, Rid, V)") {
		t.Errorf("missing tagged recursive CTE:\n%s", sql)
	}
	if got := strings.Count(sql, "R.Rid = '"); got != 5 {
		t.Errorf("expected 5 edge selects, found %d:\n%s", got, sql)
	}
	if !strings.Contains(sql, "WHERE Rid = 'p'") {
		t.Errorf("missing final Rid selection:\n%s", sql)
	}
}

func TestSQLSanitizesNames(t *testing.T) {
	p := &Program{
		Stmts: []Stmt{
			{Name: "T_X[1,2,3]", Plan: Base{Rel: "R_a"}},
			{Name: "result", Plan: Temp{Name: "T_X[1,2,3]"}},
		},
		Result: "result",
	}
	sql := p.SQL(SQLRenderOptions{})
	if strings.Contains(sql, "[") || strings.Contains(sql, ",2,") {
		t.Errorf("unsanitized identifier:\n%s", sql)
	}
	if !strings.Contains(sql, "T_X_1_2_3") {
		t.Errorf("expected sanitized name:\n%s", sql)
	}
}

func TestSQLTopoOrdersStatements(t *testing.T) {
	// "late" is defined after its user; rendering must emit it first.
	p := &Program{
		Stmts: []Stmt{
			{Name: "result", Plan: Compose{L: Temp{Name: "late"}, R: Base{Rel: "R_b"}}},
			{Name: "late", Plan: Base{Rel: "R_a"}},
		},
		Result: "result",
	}
	sql := p.SQL(SQLRenderOptions{})
	iLate := strings.Index(sql, "CREATE TEMPORARY TABLE late")
	iRes := strings.Index(sql, "CREATE TEMPORARY TABLE result")
	if iLate < 0 || iRes < 0 || iLate > iRes {
		t.Errorf("statements out of order:\n%s", sql)
	}
}

func TestSQLEmptyUnion(t *testing.T) {
	p := &Program{
		Stmts:  []Stmt{{Name: "result", Plan: UnionAll{}}},
		Result: "result",
	}
	sql := p.SQL(SQLRenderOptions{})
	if !strings.Contains(sql, "WHERE 1 = 0") {
		t.Errorf("empty relation rendering:\n%s", sql)
	}
}

func TestPlanStrings(t *testing.T) {
	plans := []Plan{
		Base{Rel: "R"}, Temp{Name: "t"}, Ident{}, RootSeed{},
		IdentOf{Child: Base{Rel: "R"}}, IdentOf{Child: Base{Rel: "R"}, OnF: true},
		Compose{L: Base{Rel: "A"}, R: Base{Rel: "B"}},
		UnionAll{Kids: []Plan{Base{Rel: "A"}}},
		Fix{Seed: Base{Rel: "A"}, Start: Base{Rel: "S"}, End: Base{Rel: "E"}},
		SelectVal{Child: Base{Rel: "A"}, Val: "x"},
		SelectRoot{Child: Base{Rel: "A"}},
		Semijoin{L: Base{Rel: "A"}, R: Base{Rel: "B"}},
		Antijoin{L: Base{Rel: "A"}, R: Base{Rel: "B"}},
		Diff{L: Base{Rel: "A"}, R: Base{Rel: "B"}},
		TypeFilter{Child: Base{Rel: "A"}, Rel: "R_b"},
		RecUnion{Init: []Tagged{{Tag: "x", Plan: Base{Rel: "A"}}}, Edges: []RecEdge{{FromTag: "x", ToTag: "y", Rel: Base{Rel: "B"}}}},
	}
	for _, pl := range plans {
		if pl.String() == "" {
			t.Errorf("%T has empty String", pl)
		}
	}
}

// TestSQLMultiLineLiteral: a text()= constant holding a newline reaches the
// SQL as it is, however deep the selection is nested. The renderer used to
// indent an operand's text line by line, which pushed spaces into the second
// line of such a literal — a different constant than the query's.
func TestSQLMultiLineLiteral(t *testing.T) {
	sel := SelectVal{Child: Base{Rel: "R_a"}, Val: "x\n\ny'z"}
	p := &Program{Result: "r", Stmts: []Stmt{{Name: "r",
		Plan: Compose{L: Semijoin{L: sel, R: Base{Rel: "R_b"}}, R: Fix{Seed: sel, End: sel}}}}}
	for _, d := range []Dialect{DialectDB2, DialectOracle} {
		sql := p.SQL(SQLRenderOptions{Dialect: d})
		if got, all := strings.Count(sql, ".V = 'x\n\ny''z'"), strings.Count(sql, ".V = '"); got != all || all < 3 {
			t.Errorf("%v: %d of %d literals intact:\n%s", d, got, all, sql)
		}
	}
}
