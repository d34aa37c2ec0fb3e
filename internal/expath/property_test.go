package expath

import (
	"math/rand"
	"testing"
	"testing/quick"

	"xpath2sql/internal/xmltree"
)

// randomExpr builds a random variable-free extended-XPath expression over
// the given labels.
func randomExpr(r *rand.Rand, labels []string, depth int) Expr {
	pick := func() string { return labels[r.Intn(len(labels))] }
	if depth == 0 {
		switch r.Intn(4) {
		case 0:
			return Eps{}
		case 1:
			return Edge{From: pick(), To: pick()}
		default:
			return Label{Name: pick()}
		}
	}
	switch r.Intn(6) {
	case 0:
		return Label{Name: pick()}
	case 1:
		return Cat{L: randomExpr(r, labels, depth-1), R: randomExpr(r, labels, depth-1)}
	case 2:
		return Union{L: randomExpr(r, labels, depth-1), R: randomExpr(r, labels, depth-1)}
	case 3:
		return Star{E: randomExpr(r, labels, depth-1)}
	case 4:
		return Qualified{E: randomExpr(r, labels, depth-1), Q: QExpr{E: randomExpr(r, labels, depth-1)}}
	default:
		return Eps{}
	}
}

// randomDoc builds a small random tree over the labels.
func randomDoc(r *rand.Rand, labels []string) *xmltree.Document {
	root := &xmltree.Node{Label: labels[0]}
	nodes := []*xmltree.Node{root}
	for i := 0; i < 12; i++ {
		parent := nodes[r.Intn(len(nodes))]
		c := parent.AddChild(labels[r.Intn(len(labels))])
		nodes = append(nodes, c)
	}
	return xmltree.NewDocument(root)
}

var propLabels = []string{"a", "b", "c"}

func relEqual(x, y Rel) bool {
	if x.Size() != y.Size() {
		return false
	}
	for f, ts := range x {
		for t := range ts {
			if !y.Has(f, t) {
				return false
			}
		}
	}
	return true
}

// TestSmartConstructorsPreserveSemantics: a table's Cat, Union and Star agree
// with the plain constructors on random expressions and documents.
func TestSmartConstructorsPreserveSemantics(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := randomDoc(r, propLabels)
		a := randomExpr(r, propLabels, 2)
		b := randomExpr(r, propLabels, 2)
		tb := NewTable()
		ta, tbb := tb.Intern(a), tb.Intern(b)
		pairs := []struct{ plain, smart Expr }{
			{Cat{L: a, R: b}, tb.Expr(tb.Cat(ta, tbb))},
			{Union{L: a, R: b}, tb.Expr(tb.Union(ta, tbb))},
			{Star{E: a}, tb.Expr(tb.Star(ta))},
			{Cat{L: Eps{}, R: a}, tb.Expr(tb.Cat(EpsTerm, ta))},
			{Union{L: Zero{}, R: a}, MkUnion(Zero{}, a)},
			{Cat{L: a, R: Zero{}}, tb.Expr(tb.Cat(ta, ZeroTerm))},
		}
		for _, p := range pairs {
			x, err := EvalExpr(p.plain, doc)
			if err != nil {
				return false
			}
			y, err := EvalExpr(p.smart, doc)
			if err != nil {
				return false
			}
			if !relEqual(x, y) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestStarLaws: (E*)* ≡ E*, and E* ≡ ε ∪ E/E*.
func TestStarLaws(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := randomDoc(r, propLabels)
		e := randomExpr(r, propLabels, 2)
		star := Star{E: e}
		x, err := EvalExpr(Star{E: star}, doc)
		if err != nil {
			return false
		}
		y, err := EvalExpr(star, doc)
		if err != nil {
			return false
		}
		if !relEqual(x, y) {
			return false
		}
		unrolled := Union{L: Eps{}, R: Cat{L: e, R: star}}
		z, err := EvalExpr(unrolled, doc)
		if err != nil {
			return false
		}
		return relEqual(y, z)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestEdgeEqualsTypedLabel: ⟨u→v⟩ ≡ restricting a v step to u-labeled
// sources.
func TestEdgeEqualsTypedLabel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := randomDoc(r, propLabels)
		u := propLabels[r.Intn(len(propLabels))]
		v := propLabels[r.Intn(len(propLabels))]
		got, err := EvalExpr(Edge{From: u, To: v}, doc)
		if err != nil {
			return false
		}
		full, err := EvalExpr(Label{Name: v}, doc)
		if err != nil {
			return false
		}
		want := Rel{}
		for f0, ts := range full {
			src := doc.Node(f0)
			if src == nil || src.Label != u {
				continue
			}
			for t0 := range ts {
				want.Add(f0, t0)
			}
		}
		return relEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestPruneIdempotent: pruning twice equals pruning once.
func TestPruneIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e1 := randomExpr(r, propLabels, 2)
		e2 := randomExpr(r, propLabels, 2)
		q := &Query{
			Eqs: []Equation{
				{X: "X1", E: e1},
				{X: "X2", E: MkUnion(Var{Name: "X1"}, e2)},
			},
			Result: Var{Name: "X2"},
		}
		p1 := q.Prune()
		p2 := p1.Prune()
		return p1.String() == p2.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// reshape returns an expression that prints as e does but is built
// differently: ∪ and / re-associated, and a qualifier moved between a
// concatenation and its last step, at random places.
func reshape(r *rand.Rand, e Expr) Expr {
	switch e := e.(type) {
	case Union:
		l, rr := reshape(r, e.L), reshape(r, e.R)
		if u, ok := l.(Union); ok && r.Intn(2) == 0 {
			return Union{L: u.L, R: Union{L: u.R, R: rr}}
		}
		if u, ok := rr.(Union); ok && r.Intn(2) == 0 {
			return Union{L: Union{L: l, R: u.L}, R: u.R}
		}
		return Union{L: l, R: rr}
	case Cat:
		l, rr := reshape(r, e.L), reshape(r, e.R)
		if c, ok := l.(Cat); ok && r.Intn(2) == 0 {
			return Cat{L: c.L, R: Cat{L: c.R, R: rr}}
		}
		if c, ok := rr.(Cat); ok && r.Intn(2) == 0 {
			return Cat{L: Cat{L: l, R: c.L}, R: c.R}
		}
		if q, ok := rr.(Qualified); ok && r.Intn(2) == 0 {
			return Qualified{E: Cat{L: l, R: q.E}, Q: q.Q}
		}
		return Cat{L: l, R: rr}
	case Qualified:
		inner := reshape(r, e.E)
		if c, ok := inner.(Cat); ok && r.Intn(2) == 0 {
			return Cat{L: c.L, R: Qualified{E: c.R, Q: e.Q}}
		}
		return Qualified{E: inner, Q: e.Q}
	case Star:
		return Star{E: reshape(r, e.E)}
	}
	return e
}

// TestSameIsPrintedEquality: two terms of a table are Same exactly when they
// print alike — ∪ and / associative, E[q] on a concatenation the same as on
// its last step — over random expressions and reshaped copies of them.
func TestSameIsPrintedEquality(t *testing.T) {
	labels := []string{"a", "b", "X"}
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		tb := NewTable()
		for i := 0; i < 6; i++ {
			e := randomExpr(r, labels, 3)
			if r.Intn(3) == 0 {
				e = Cat{L: Var{Name: "Y"}, R: Qualified{E: e, Q: QExpr{E: Label{Name: "b"}}}}
			}
			tb.Intern(e)
			tb.Intern(reshape(r, e))
		}
		printed := make([]string, tb.Len())
		for x := range printed {
			printed[x] = tb.QualOf(Term(x)).String()
		}
		for a := range printed {
			for b := a + 1; b < len(printed); b++ {
				if tb.Same(Term(a), Term(b)) != (printed[a] == printed[b]) {
					t.Fatalf("seed %d: %q and %q, Same %v", seed, printed[a], printed[b], tb.Same(Term(a), Term(b)))
				}
			}
		}
	}
}
