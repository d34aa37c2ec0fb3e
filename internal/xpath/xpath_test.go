package xpath

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"xpath2sql/internal/xmltree"
)

func TestParsePrint(t *testing.T) {
	cases := []struct {
		in, out string
	}{
		{"a", "a"},
		{".", "."},
		{"*", "*"},
		{"a/b", "a/b"},
		{"a//b", "a//b"},
		{"//a", "//a"},
		{"a | b", "a | b"},
		{"a/b | c", "a/b | c"},
		{"(a | b)/c", "(a | b)/c"},
		{"a[b]", "a[b]"},
		{"a[not(b)]", "a[not(b)]"},
		{"a[b and c]", "a[b and c]"},
		{"a[b or c]", "a[b or c]"},
		{"a[(b or c) and d]", "a[(b or c) and d]"},
		{"a[text()='x']", `a[text()="x"]`},
		{`a[text()="x"]`, `a[text()="x"]`},
		{"a[.//b]", "a[.//b]"},
		{"a//b/c[d][e]", "a//b/c[d][e]"},
		// 'and' binds tighter than 'or', so these parens are redundant and
		// the canonical form drops them.
		{"a[not(b//c) or (d and e)]", "a[not(b//c) or d and e]"},
		{"//a//b", "//a//b"},
		{"a/*/b", "a/*/b"},
	}
	for _, tc := range cases {
		p, err := Parse(tc.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.in, err)
			continue
		}
		if got := p.String(); got != tc.out {
			t.Errorf("Parse(%q).String() = %q, want %q", tc.in, got, tc.out)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"", "a[", "a]", "a[b", "a[]", "a//", "a/", "(a", "a)b", "a[text()=]",
		"a[text()='x]", "a b", "a[not(b]", "|a",
	} {
		if p, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) = %v, expected error", bad, p)
		}
	}
}

// TestPrintParseRoundtrip: parse(p.String()) == p for random ASTs.
func TestPrintParseRoundtrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		p := randomPath(r, 4)
		s := p.String()
		p2, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v (AST %#v)", s, err, p)
		}
		if p2.String() != s {
			t.Fatalf("roundtrip: %q -> %q", s, p2.String())
		}
	}
}

// TestLiteralRoundtrip: whatever bytes a text() literal holds — both quotes,
// backslashes, control bytes, invalid UTF-8 — Parse(p.String()) is
// structurally p, so the canonical text can stand in for the AST (plan-cache
// key, the query a router ships to a shard), and distinct literals never
// print alike.
func TestLiteralRoundtrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	classes := []string{`"`, "'", `\`, "x", " ", "]", ")", ",", "\n", "\x00", "\xff\xfe", "é", "concat("}
	printed := map[string]string{}
	for i := 0; i < 2000; i++ {
		var lit strings.Builder
		for n := r.Intn(8); n > 0; n-- {
			if r.Intn(4) == 0 {
				lit.WriteByte(byte(r.Intn(256)))
			} else {
				lit.WriteString(classes[r.Intn(len(classes))])
			}
		}
		var p Path = Seq{L: Label{Name: "a"}, R: Filter{P: Desc{P: Label{Name: "b"}},
			Q: QAnd{L: QText{C: lit.String()}, R: QNot{Q: QText{C: lit.String() + "'"}}}}}
		s := p.String()
		p2, err := Parse(s)
		if err != nil {
			t.Fatalf("literal %q prints as %q, which does not parse: %v", lit.String(), s, err)
		}
		if !reflect.DeepEqual(p2, p) {
			t.Fatalf("literal %q prints as %q, which parses to %#v", lit.String(), s, p2)
		}
		if prev, ok := printed[s]; ok && prev != lit.String() {
			t.Fatalf("literals %q and %q both print as %q", prev, lit.String(), s)
		}
		printed[s] = lit.String()
	}
}

var labels = []string{"a", "b", "c", "order", "android", "nota"}

func randomPath(r *rand.Rand, depth int) Path {
	if depth == 0 {
		switch r.Intn(3) {
		case 0:
			return Empty{}
		case 1:
			return Wildcard{}
		default:
			return Label{Name: labels[r.Intn(len(labels))]}
		}
	}
	switch r.Intn(7) {
	case 0:
		return Label{Name: labels[r.Intn(len(labels))]}
	case 1:
		return Seq{L: randomPath(r, depth-1), R: randomPath(r, depth-1)}
	case 2:
		return Desc{P: randomStep(r, depth-1)}
	case 3:
		return Seq{L: randomPath(r, depth-1), R: Desc{P: randomStep(r, depth-1)}}
	case 4:
		return Union{L: randomPath(r, depth-1), R: randomPath(r, depth-1)}
	case 5:
		return Filter{P: randomStep(r, depth-1), Q: randomQual(r, depth-1)}
	default:
		return Empty{}
	}
}

// randomStep avoids a union directly under '/' or '//' without parens in
// printing; the printer adds parens, so any path works as a step.
func randomStep(r *rand.Rand, depth int) Path {
	return randomPath(r, depth)
}

func randomQual(r *rand.Rand, depth int) Qual {
	if depth == 0 {
		return QPath{P: Label{Name: labels[r.Intn(len(labels))]}}
	}
	switch r.Intn(5) {
	case 0:
		return QPath{P: randomPath(r, depth-1)}
	case 1:
		return QText{C: "v"}
	case 2:
		return QNot{Q: randomQual(r, depth-1)}
	case 3:
		return QAnd{L: randomQual(r, depth-1), R: randomQual(r, depth-1)}
	default:
		return QOr{L: randomQual(r, depth-1), R: randomQual(r, depth-1)}
	}
}

func doc(t *testing.T, src string) *xmltree.Document {
	t.Helper()
	d, err := xmltree.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func ids(s xmltree.NodeSet) []int {
	raw := s.IDs()
	out := make([]int, len(raw))
	for i, id := range raw {
		out[i] = int(id)
	}
	return out
}

func eq(a []int, b ...int) bool {
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

func TestEvalBasics(t *testing.T) {
	// IDs: a=1, b=2, c=3, b=4, d=5, c=6
	d := doc(t, `<a><b><c>x</c></b><b/><d><c>y</c></d></a>`)
	cases := []struct {
		q    string
		want []int
	}{
		{"a", []int{1}},
		{"a/b", []int{2, 4}},
		{"a/*", []int{2, 4, 5}},
		{"a/b/c", []int{3}},
		{"//c", []int{3, 6}},
		{"a//c", []int{3, 6}},
		{"//b/c", []int{3}},
		{"a/b | a/d", []int{2, 4, 5}},
		{"a/b[c]", []int{2}},
		{"a/b[not(c)]", []int{4}},
		{"a/b[c[text()='x']]", []int{2}},
		{"a/b[c[text()='y']]", nil},
		{"a[b and d]", []int{1}},
		{"a[b and not(d)]", nil},
		{"a[b or z]", []int{1}},
		{"a/.", []int{1}},
		{"./a", []int{1}},
		{"//*", []int{1, 2, 3, 4, 5, 6}},
		{"//.", []int{1, 2, 3, 4, 5, 6}},
		{"b", nil}, // root element is a, not b
		{"a//b", []int{2, 4}},
		{"a[.//c[text()='y']]", []int{1}},
	}
	for _, tc := range cases {
		p, err := Parse(tc.q)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.q, err)
			continue
		}
		got := ids(EvalDoc(p, d))
		if !eq(got, tc.want...) {
			t.Errorf("EvalDoc(%q) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestEvalAtNode(t *testing.T) {
	d := doc(t, `<a><b><c/></b><c/></a>`)
	b := d.Node(2)
	got := ids(Eval(MustParse("c"), b))
	if !eq(got, 3) {
		t.Fatalf("Eval(c at b) = %v", got)
	}
	// Descendant-or-self at b: c under b only.
	got = ids(Eval(MustParse("//c"), b))
	if !eq(got, 3) {
		t.Fatalf("Eval(//c at b) = %v", got)
	}
}

func TestSizeAndSubpaths(t *testing.T) {
	p := MustParse("a/b[c and not(d)]//e")
	if Size(p) < 7 {
		t.Fatalf("Size = %d", Size(p))
	}
	subs := Subpaths(p)
	// Postorder: every operand precedes its operator; p itself is last.
	if subs[len(subs)-1].String() != p.String() {
		t.Fatalf("last subpath = %s", subs[len(subs)-1])
	}
	seen := map[string]bool{}
	for _, s := range subs {
		seen[s.String()] = true
	}
	for _, want := range []string{"a", "b", "c", "d", "e"} {
		if !seen[want] {
			t.Errorf("missing subpath %q in %v", want, subs)
		}
	}
}

// TestClassesArePrintedForms: two sub-paths share a class exactly when they
// print alike.
func TestClassesArePrintedForms(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		p := randomPath(r, 4)
		classes, n := Classes(p)
		subs := Subpaths(p)
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
	d := doc(t, `<a><b><c/><d/></b><b><d><c/></d></b></a>`)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p1 := randomPath(r, 2)
		p2 := randomPath(r, 2)
		p3 := randomPath(r, 2)
		lhs := EvalDoc(Seq{L: p1, R: Union{L: p2, R: p3}}, d)
		rhs := EvalDoc(Union{L: Seq{L: p1, R: p2}, R: Seq{L: p1, R: p3}}, d)
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestEvalDescComposition: //(p) at v equals desc-or-self(v) then p.
func TestEvalDescComposition(t *testing.T) {
	d := doc(t, `<a><b><a><b/></a></b></a>`)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomPath(r, 2)
		lhs := EvalDoc(Desc{P: p}, d)
		// Equivalent formulation: .//p ≡ //p.
		rhs := EvalDoc(Seq{L: Empty{}, R: Desc{P: p}}, d)
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDeMorgan: [not(q1 and q2)] ≡ [not(q1) or not(q2)].
func TestDeMorgan(t *testing.T) {
	d := doc(t, `<a><b><c/></b><b><d/></b><b><c/><d/></b></a>`)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q1 := randomQual(r, 2)
		q2 := randomQual(r, 2)
		base := MustParse("a/b")
		lhs := EvalDoc(Filter{P: base, Q: QNot{Q: QAnd{L: q1, R: q2}}}, d)
		rhs := EvalDoc(Filter{P: base, Q: QOr{L: QNot{Q: q1}, R: QNot{Q: q2}}}, d)
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
