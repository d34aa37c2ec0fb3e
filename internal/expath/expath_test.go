package expath

import (
	"testing"

	"xpath2sql/internal/xmltree"
)

func lbl(s string) Expr  { return Label{Name: s} }
func cat(l, r Expr) Expr { return Cat{L: l, R: r} }
func uni(l, r Expr) Expr { return Union{L: l, R: r} }
func star(e Expr) Expr   { return Star{E: e} }
func v(s string) Expr    { return Var{Name: s} }

// TestSmartConstructors: the ∅/ε algebra of §2.2 on a table's terms, ⊤ and
// ⊥ being ε and ∅.
func TestSmartConstructors(t *testing.T) {
	tb := NewTable()
	a, x := tb.Label("a"), tb.Text("x")
	for _, c := range []struct {
		what      string
		got, want Term
	}{
		{"∅ ∪ a", tb.Union(ZeroTerm, a), a},
		{"a ∪ ∅", tb.Union(a, ZeroTerm), a},
		{"a ∪ a", tb.Union(a, tb.Label("a")), a},
		{"∅/a", tb.Cat(ZeroTerm, a), ZeroTerm},
		{"a/∅", tb.Cat(a, ZeroTerm), ZeroTerm},
		{"ε/a", tb.Cat(EpsTerm, a), a},
		{"a/ε", tb.Cat(a, EpsTerm), a},
		{"∅*", tb.Star(ZeroTerm), EpsTerm},
		{"ε*", tb.Star(EpsTerm), EpsTerm},
		{"(a*)*", tb.Star(tb.Star(a)), tb.Star(a)},
		{"a[⊤]", tb.Qual(a, EpsTerm), a},
		{"a[⊥]", tb.Qual(a, ZeroTerm), ZeroTerm},
		{"¬⊤", tb.Not(EpsTerm), ZeroTerm},
		{"¬¬q", tb.Not(tb.Not(x)), x},
		{"⊥ ∧ q", tb.And(ZeroTerm, x), ZeroTerm},
		{"⊤ ∧ q", tb.And(EpsTerm, x), x},
		{"⊤ ∨ q", tb.Or(EpsTerm, x), EpsTerm},
		{"⊥ ∨ q", tb.Or(ZeroTerm, x), x},
	} {
		if !tb.Same(c.got, c.want) {
			t.Errorf("%s = %s, want %s", c.what, tb.QualOf(c.got), tb.QualOf(c.want))
		}
	}
	if _, ok := MkUnion(Zero{}, lbl("a")).(Label); !ok {
		t.Errorf("MkUnion(∅, a) should be a")
	}
	if got := MkUnion(lbl("a"), lbl("a")).String(); got != "a" {
		t.Errorf("MkUnion(a, a) = %s", got)
	}
}

func TestPrinterPrecedence(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{cat(lbl("a"), lbl("b")), "a/b"},
		{cat(uni(lbl("a"), lbl("b")), lbl("c")), "(a ∪ b)/c"},
		{star(lbl("a")), "a*"},
		{star(cat(lbl("a"), lbl("b"))), "(a/b)*"},
		{star(uni(lbl("a"), lbl("b"))), "(a ∪ b)*"},
		{cat(lbl("a"), star(lbl("b"))), "a/b*"},
		{Qualified{E: lbl("a"), Q: QText{C: "x"}}, `a[text()="x"]`},
		{star(Qualified{E: lbl("a"), Q: QExpr{E: lbl("b")}}), "(a[b])*"},
	}
	for _, tc := range cases {
		if got := tc.e.String(); got != tc.want {
			t.Errorf("String = %q, want %q", got, tc.want)
		}
	}
}

func TestQueryValidate(t *testing.T) {
	good := &Query{
		Eqs: []Equation{
			{X: "X1", E: lbl("a")},
			{X: "X2", E: cat(v("X1"), lbl("b"))},
		},
		Result: v("X2"),
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	forward := &Query{
		Eqs: []Equation{
			{X: "X1", E: v("X2")},
			{X: "X2", E: lbl("a")},
		},
		Result: v("X1"),
	}
	if err := forward.Validate(); err == nil {
		t.Fatalf("forward reference accepted")
	}
	dup := &Query{
		Eqs:    []Equation{{X: "X1", E: lbl("a")}, {X: "X1", E: lbl("b")}},
		Result: v("X1"),
	}
	if err := dup.Validate(); err == nil {
		t.Fatalf("duplicate binding accepted")
	}
	unbound := &Query{Result: v("X9")}
	if err := unbound.Validate(); err == nil {
		t.Fatalf("unbound result accepted")
	}
}

func evalAtRoot(t *testing.T, q *Query, src string) []int {
	t.Helper()
	doc, err := xmltree.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := EvalQuery(q, doc)
	if err != nil {
		t.Fatal(err)
	}
	set := ResultAtRoot(rel, doc)
	var out []int
	for _, id := range set.IDs() {
		out = append(out, int(id))
	}
	return out
}

func eqInts(a []int, b ...int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEvalSimple(t *testing.T) {
	// <a><b><c/></b><b/></a>: IDs a=1 b=2 c=3 b=4
	q := &Query{Result: cat(lbl("a"), lbl("b"))}
	if got := evalAtRoot(t, q, `<a><b><c/></b><b/></a>`); !eqInts(got, 2, 4) {
		t.Fatalf("a/b = %v", got)
	}
}

func TestEvalStar(t *testing.T) {
	// Linear chain a/a/a: (a)* from virtual root reaches all of them plus ε.
	q := &Query{Result: cat(lbl("a"), star(lbl("a")))}
	if got := evalAtRoot(t, q, `<a><a><a/></a></a>`); !eqInts(got, 1, 2, 3) {
		t.Fatalf("a/a* = %v", got)
	}
}

func TestEvalVariables(t *testing.T) {
	// X = b ∪ c; result = a/X over <a><b/><c/><d/></a>.
	q := &Query{
		Eqs:    []Equation{{X: "X", E: uni(lbl("b"), lbl("c"))}},
		Result: cat(lbl("a"), v("X")),
	}
	if got := evalAtRoot(t, q, `<a><b/><c/><d/></a>`); !eqInts(got, 2, 3) {
		t.Fatalf("a/(b∪c) = %v", got)
	}
}

func TestEvalQualifiers(t *testing.T) {
	// a/b[c]: b children of a that have a c child.
	q := &Query{Result: cat(lbl("a"), Qualified{E: lbl("b"), Q: QExpr{E: lbl("c")}})}
	if got := evalAtRoot(t, q, `<a><b><c/></b><b/></a>`); !eqInts(got, 2) {
		t.Fatalf("a/b[c] = %v", got)
	}
	// a/b[¬c].
	q = &Query{Result: cat(lbl("a"), Qualified{E: lbl("b"), Q: QNot{Q: QExpr{E: lbl("c")}}})}
	if got := evalAtRoot(t, q, `<a><b><c/></b><b/></a>`); !eqInts(got, 4) {
		t.Fatalf("a/b[¬c] = %v", got)
	}
	// a/b[text()='x'].
	q = &Query{Result: cat(lbl("a"), Qualified{E: lbl("b"), Q: QText{C: "x"}})}
	if got := evalAtRoot(t, q, `<a><b>x</b><b>y</b></a>`); !eqInts(got, 2) {
		t.Fatalf("a/b[text()=x] = %v", got)
	}
}

func TestEvalExprRejectsVariables(t *testing.T) {
	doc, _ := xmltree.Parse(`<a/>`)
	if _, err := EvalExpr(v("X"), doc); err == nil {
		t.Fatalf("unbound variable accepted")
	}
}

func TestPrune(t *testing.T) {
	q := &Query{
		Eqs: []Equation{
			{X: "Dead", E: cat(lbl("x"), lbl("y"))}, // unused
			{X: "Z", E: Zero{}},                     // ∅ binding
			{X: "A", E: lbl("a")},                   // trivial
			{X: "U", E: uni(v("A"), v("Z"))},        // collapses to a (Var)
			{X: "B", E: cat(v("U"), lbl("b"))},      // a/b
		},
		Result: v("B"),
	}
	p := q.Prune()
	if err := p.Validate(); err != nil {
		t.Fatalf("pruned invalid: %v", err)
	}
	for _, eq := range p.Eqs {
		switch eq.X {
		case "Dead", "Z", "A", "U":
			t.Errorf("equation %s should have been pruned", eq.X)
		}
	}
	got := evalAtRoot(t, p, `<a><b/></a>`)
	if !eqInts(got, 2) {
		t.Fatalf("pruned query result = %v", got)
	}
}

func TestPruneEquivalence(t *testing.T) {
	// Prune must preserve semantics on a query with rich structure.
	q := &Query{
		Eqs: []Equation{
			{X: "E1", E: lbl("b")},
			{X: "E2", E: uni(v("E1"), Zero{})},
			{X: "E3", E: star(v("E2"))},
			{X: "E4", E: cat(lbl("a"), v("E3"))},
		},
		Result: v("E4"),
	}
	src := `<a><b><b/></b></a>`
	want := evalAtRoot(t, q, src)
	got := evalAtRoot(t, q.Prune(), src)
	if !eqInts(got, want...) {
		t.Fatalf("prune changed result: %v vs %v", got, want)
	}
}

func TestInline(t *testing.T) {
	q := &Query{
		Eqs: []Equation{
			{X: "X", E: uni(lbl("b"), lbl("c"))},
			{X: "Y", E: cat(lbl("a"), v("X"))},
		},
		Result: v("Y"),
	}
	inlined := q.Inline()
	if len(FreeVars(inlined)) != 0 {
		t.Fatalf("Inline left variables: %s", inlined)
	}
	src := `<a><b/><c/><d/></a>`
	want := evalAtRoot(t, q, src)
	got := evalAtRoot(t, &Query{Result: inlined}, src)
	if !eqInts(got, want...) {
		t.Fatalf("inline changed result: %v vs %v", got, want)
	}
}

func TestCountOps(t *testing.T) {
	q := &Query{
		Eqs: []Equation{
			{X: "X", E: uni(lbl("b"), cat(lbl("c"), lbl("d")))}, // 1 union, 1 cat
			{X: "Dead", E: star(lbl("z"))},                      // unreachable: not counted
		},
		Result: cat(lbl("a"), star(v("X"))), // 1 cat, 1 star
	}
	c := q.CountOps()
	if c.Star != 1 || c.Cat != 2 || c.Union != 1 {
		t.Fatalf("CountOps = %+v", c)
	}
	if c.All() != 4 {
		t.Fatalf("All = %d", c.All())
	}
}

func TestFreeVars(t *testing.T) {
	e := cat(v("B"), Qualified{E: star(v("A")), Q: QAnd{L: QExpr{E: v("C")}, R: QText{C: "x"}}})
	vs := FreeVars(e)
	if len(vs) != 3 || vs[0] != "A" || vs[1] != "B" || vs[2] != "C" {
		t.Fatalf("FreeVars = %v", vs)
	}
}
