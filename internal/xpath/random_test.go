package xpath_test

import (
	"testing"
	"testing/quick"

	"xpath2sql/internal/difftest"
	"xpath2sql/internal/xmltree"
	"xpath2sql/internal/xpath"
)

// labels holds labels that begin like a keyword, which the lexer must not
// take for one.
var labels = []string{"a", "b", "c", "order", "android", "nota"}

func mustDoc(t testing.TB, src string) *xmltree.Document {
	t.Helper()
	d, err := xmltree.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestPrintParseRoundtrip: parse(p.String()) prints as p for random ASTs.
func TestPrintParseRoundtrip(t *testing.T) {
	r := difftest.Seed(7)
	for i := 0; i < 500; i++ {
		p := difftest.Query(r, labels, 4)
		s := p.String()
		p2, err := xpath.Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v (AST %#v)", s, err, p)
		}
		if p2.String() != s {
			t.Fatalf("roundtrip: %q -> %q", s, p2.String())
		}
	}
}

// FuzzParse: a text Parse accepts prints in a form that parses again, to the
// same print and to a query selecting the same nodes. The two ASTs need not
// be equal: a | (b | c) prints as a | b | c, which parses left-nested.
func FuzzParse(f *testing.F) {
	for _, s := range []string{"order/android[nota]", "a//b[text()='x' or not(c)]", "0|(0|0)", "(a | b)/c", ".//*"} {
		f.Add(s)
	}
	d := mustDoc(f, `<a><b><c>x</c><order/></b><b><nota/><c/></b><android>x</android></a>`)
	f.Fuzz(func(t *testing.T, in string) {
		p, err := xpath.Parse(in)
		if err != nil {
			return
		}
		s := p.String()
		p2, err := xpath.Parse(s)
		if err != nil {
			t.Fatalf("%q prints as %q, which does not parse: %v", in, s, err)
		}
		if s2 := p2.String(); s2 != s {
			t.Fatalf("%q prints as %q, which prints as %q", in, s, s2)
		}
		if !xpath.EvalDoc(p, d).Equal(xpath.EvalDoc(p2, d)) {
			t.Fatalf("%q and its print %q select different nodes", in, s)
		}
	})
}

// TestClassesArePrintedForms: two sub-paths share a class exactly when they
// print alike.
func TestClassesArePrintedForms(t *testing.T) {
	r := difftest.Seed(3)
	for i := 0; i < 500; i++ {
		p := difftest.Query(r, labels, 4)
		classes, n := xpath.Classes(p)
		subs := xpath.Subpaths(p)
		if len(classes) != len(subs) {
			t.Fatalf("%s: %d classes for %d sub-paths", p, len(classes), len(subs))
		}
		seen := map[int32]string{}
		for k, s := range subs {
			if prev, ok := seen[classes[k]]; ok && prev != s.String() {
				t.Fatalf("%s: %q and %q share class %d", p, prev, s, classes[k])
			}
			seen[classes[k]] = s.String()
		}
		printed := map[string]bool{}
		for _, s := range subs {
			printed[s.String()] = true
		}
		if len(printed) != n || len(seen) != n {
			t.Fatalf("%s: %d classes, %d printed forms", p, n, len(printed))
		}
	}
}

// TestEvalUnionDistributes: p1/(p2|p3) ≡ p1/p2 | p1/p3 on random docs.
func TestEvalUnionDistributes(t *testing.T) {
	d := mustDoc(t, `<a><b><c/><d/></b><b><d><c/></d></b></a>`)
	f := func(seed int64) bool {
		r := difftest.Seed(seed)
		p1 := difftest.Query(r, labels, 2)
		p2 := difftest.Query(r, labels, 2)
		p3 := difftest.Query(r, labels, 2)
		lhs := xpath.EvalDoc(xpath.Seq{L: p1, R: xpath.Union{L: p2, R: p3}}, d)
		rhs := xpath.EvalDoc(xpath.Union{L: xpath.Seq{L: p1, R: p2}, R: xpath.Seq{L: p1, R: p3}}, d)
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestEvalDescComposition: //(p) at v equals desc-or-self(v) then p.
func TestEvalDescComposition(t *testing.T) {
	d := mustDoc(t, `<a><b><a><b/></a></b></a>`)
	f := func(seed int64) bool {
		p := difftest.Query(difftest.Seed(seed), labels, 2)
		lhs := xpath.EvalDoc(xpath.Desc{P: p}, d)
		// Equivalent formulation: .//p ≡ //p.
		rhs := xpath.EvalDoc(xpath.Seq{L: xpath.Empty{}, R: xpath.Desc{P: p}}, d)
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDeMorgan: [not(q1 and q2)] ≡ [not(q1) or not(q2)].
func TestDeMorgan(t *testing.T) {
	d := mustDoc(t, `<a><b><c/></b><b><d/></b><b><c/><d/></b></a>`)
	f := func(seed int64) bool {
		r := difftest.Seed(seed)
		q1 := difftest.Qual(r, labels, 2)
		q2 := difftest.Qual(r, labels, 2)
		base := xpath.MustParse("a/b")
		lhs := xpath.EvalDoc(xpath.Filter{P: base, Q: xpath.QNot{Q: xpath.QAnd{L: q1, R: q2}}}, d)
		rhs := xpath.EvalDoc(xpath.Filter{P: base, Q: xpath.QOr{L: xpath.QNot{Q: q1}, R: xpath.QNot{Q: q2}}}, d)
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
