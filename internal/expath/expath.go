// Package expath implements extended XPath expressions (Fan et al. §3.2):
//
//	E ::= ε | A | X | E/E | E ∪ E | E* | E[q]
//	q ::= E | text() = c | ¬q | q ∧ q | q ∨ q
//
// where X ranges over variables and E* is general Kleene closure. An
// extended XPath query is a sequence of equations X_i = E_i binding
// variables to expressions; variables give possibly-infinite path sets a
// polynomial-size representation (the key to CycleEX's complexity bound).
//
// Semantics are binary-relational: an expression denotes the set of
// (context, target) node pairs it connects in an XML tree. This aligns the
// tree evaluator with the relational translation, whose intermediate tables
// carry exactly (F, T) node-ID pairs.
package expath

import (
	"fmt"
	"sort"
	"strconv"
)

// Expr is a node of the extended-XPath AST.
type Expr interface {
	String() string
	isExpr()
}

// Zero is the special query ∅ returning the empty set over all trees; it is
// the identity of ∪ and annihilates / (§2.2). It never survives into final
// output — the translators prune it — but is pervasive mid-construction.
type Zero struct{}

// Eps is the empty path ε.
type Eps struct{}

// Label is a child step to elements labeled Name.
type Label struct{ Name string }

// Edge is a source-typed child step: from a From-labeled element to a
// To-labeled child. It is the expression form of the typed edge joins of
// Example 3.5 (Rs/Rc ≡ Edge{student, course}): unlike a bare Label step it
// stays within the DTD's edge set even when evaluated over documents of a
// larger, containing DTD, which the flat per-component closures require
// (§3.2 and the view semantics of §3.4).
type Edge struct{ From, To string }

// Var references the equation binding X.
type Var struct{ Name string }

// Cat is concatenation E1/E2.
type Cat struct{ L, R Expr }

// Union is E1 ∪ E2.
type Union struct{ L, R Expr }

// Star is Kleene closure E* (zero or more).
type Star struct{ E Expr }

// Qualified is E[q].
type Qualified struct {
	E Expr
	Q Qual
}

// DescSelf annotates the non-ε part of a recursive descendant closure
// rec(From, To) with its physical alternative: the expression denotes
// exactly what Alt denotes (DescSelf is semantically transparent — every
// evaluator answers it by evaluating Alt), but the relational translation
// may replace the equation plan with a document-order interval containment
// scan from From-typed to To-typed nodes when the stored database carries a
// matching interval encoding. Introduced by the XPath→extended-XPath
// rewriting around every // step's rec() expression.
type DescSelf struct {
	From, To string
	Alt      Expr
}

func (Zero) isExpr()      {}
func (Eps) isExpr()       {}
func (Label) isExpr()     {}
func (Edge) isExpr()      {}
func (Var) isExpr()       {}
func (Cat) isExpr()       {}
func (Union) isExpr()     {}
func (Star) isExpr()      {}
func (Qualified) isExpr() {}
func (DescSelf) isExpr()  {}

func (Zero) String() string    { return "∅" }
func (Eps) String() string     { return "ε" }
func (l Label) String() string { return l.Name }
func (e Edge) String() string  { return "⟨" + e.From + "→" + e.To + "⟩" }
func (v Var) String() string   { return v.Name }

func (c Cat) String() string       { return string(appendExpr(nil, c, 0)) }
func (u Union) String() string     { return string(appendExpr(nil, u, 0)) }
func (s Star) String() string      { return string(appendExpr(nil, s, 0)) }
func (q Qualified) String() string { return string(appendExpr(nil, q, 0)) }
func (d DescSelf) String() string  { return string(appendExpr(nil, d, 0)) }

// appendExpr appends e's printed form to b, parenthesized when its precedence
// is below the context level: 1 = operand of '/', 2 = operand of '*'.
func appendExpr(b []byte, e Expr, level int) []byte {
	wrap := false
	switch e.(type) {
	case Union:
		wrap = level >= 1
	case Cat, Qualified:
		wrap = level >= 2
	}
	if wrap {
		b = append(b, '(')
	}
	switch e := e.(type) {
	case Cat:
		b = append(appendExpr(b, e.L, 1), '/')
		b = appendExpr(b, e.R, 1)
	case Union:
		b = append(appendExpr(b, e.L, 0), " ∪ "...)
		b = appendExpr(b, e.R, 0)
	case Star:
		b = append(appendExpr(b, e.E, 2), '*')
	case Qualified:
		b = append(appendExpr(b, e.E, 1), '[')
		b = append(appendQual(b, e.Q), ']')
	case DescSelf:
		b = append(append(append(append(b, "desc⟨"...), e.From...), "↝"...), e.To...)
		b = append(appendExpr(append(b, "⟩("...), e.Alt, 0), ')')
	case Edge:
		b = append(append(append(append(b, "⟨"...), e.From...), "→"...), e.To...)
		b = append(b, "⟩"...)
	default:
		b = append(b, e.String()...)
	}
	if wrap {
		b = append(b, ')')
	}
	return b
}

// Qual is a qualifier over extended expressions.
type Qual interface {
	String() string
	isQual()
}

// QTrue is the trivially-true qualifier (RewQual's ⊤, printed ε): a
// qualifier statically decided by the DTD structure.
type QTrue struct{}

// QFalse is the trivially-false qualifier (RewQual's ∅).
type QFalse struct{}

// QExpr is an existence test [E].
type QExpr struct{ E Expr }

// QText is [text() = c].
type QText struct{ C string }

// QNot is [¬q].
type QNot struct{ Q Qual }

// QAnd is [q1 ∧ q2].
type QAnd struct{ L, R Qual }

// QOr is [q1 ∨ q2].
type QOr struct{ L, R Qual }

func (QTrue) isQual()  {}
func (QFalse) isQual() {}
func (QExpr) isQual()  {}
func (QText) isQual()  {}
func (QNot) isQual()   {}
func (QAnd) isQual()   {}
func (QOr) isQual()    {}

func (QTrue) String() string   { return "ε" }
func (QFalse) String() string  { return "∅" }
func (q QExpr) String() string { return string(appendQual(nil, q)) }
func (q QText) String() string { return string(appendQual(nil, q)) }
func (q QNot) String() string  { return string(appendQual(nil, q)) }
func (q QAnd) String() string  { return string(appendQual(nil, q)) }
func (q QOr) String() string   { return string(appendQual(nil, q)) }

func appendQual(b []byte, q Qual) []byte {
	switch q := q.(type) {
	case QExpr:
		return appendExpr(b, q.E, 0)
	case QText:
		return strconv.AppendQuote(append(b, "text()="...), q.C)
	case QNot:
		return append(appendQual(append(b, "¬("...), q.Q), ')')
	case QAnd:
		b = append(appendQual(append(b, '('), q.L), " ∧ "...)
		return append(appendQual(b, q.R), ')')
	case QOr:
		b = append(appendQual(append(b, '('), q.L), " ∨ "...)
		return append(appendQual(b, q.R), ')')
	}
	return append(b, q.String()...)
}

// Equation binds a variable to an expression.
type Equation struct {
	X string
	E Expr
}

// Query is an extended XPath query: equations in dependency order (an
// equation's expression references only variables bound by earlier
// equations) and a result expression.
type Query struct {
	Eqs    []Equation
	Result Expr
}

// String prints the result and then the equations, last bound first, into
// one buffer.
func (q *Query) String() string {
	b := append(appendExpr([]byte("result = "), q.Result, 0), '\n')
	for i := len(q.Eqs) - 1; i >= 0; i-- {
		b = append(append(b, q.Eqs[i].X...), " = "...)
		b = append(appendExpr(b, q.Eqs[i].E, 0), '\n')
	}
	return string(b)
}

// FreeVars returns the variables referenced by e, sorted.
func FreeVars(e Expr) []string {
	set := map[string]bool{}
	walk(e, func(e Expr) {
		if v, ok := e.(Var); ok {
			set[v.Name] = true
		}
	})
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// walk calls f on e and on every expression inside it, qualifiers included,
// each occurrence once, parents first.
func walk(e Expr, f func(Expr)) {
	f(e)
	switch e := e.(type) {
	case Cat:
		walk(e.L, f)
		walk(e.R, f)
	case Union:
		walk(e.L, f)
		walk(e.R, f)
	case Star:
		walk(e.E, f)
	case Qualified:
		walk(e.E, f)
		walkQual(e.Q, f)
	case DescSelf:
		walk(e.Alt, f)
	}
}

func walkQual(q Qual, f func(Expr)) {
	switch q := q.(type) {
	case QExpr:
		walk(q.E, f)
	case QNot:
		walkQual(q.Q, f)
	case QAnd:
		walkQual(q.L, f)
		walkQual(q.R, f)
	case QOr:
		walkQual(q.L, f)
		walkQual(q.R, f)
	}
}

// Validate checks the dependency ordering invariant of the query and that
// every referenced variable is bound.
func (q *Query) Validate() error {
	bound := make(map[string]bool, len(q.Eqs))
	unbound := func(e Expr) (name string) {
		walk(e, func(e Expr) {
			if v, ok := e.(Var); ok && name == "" && !bound[v.Name] {
				name = v.Name
			}
		})
		return name
	}
	for i, eq := range q.Eqs {
		if v := unbound(eq.E); v != "" {
			return fmt.Errorf("expath: equation %d (%s) references unbound variable %s", i, eq.X, v)
		}
		if bound[eq.X] {
			return fmt.Errorf("expath: variable %s bound twice", eq.X)
		}
		bound[eq.X] = true
	}
	if v := unbound(q.Result); v != "" {
		return fmt.Errorf("expath: result references unbound variable %s", v)
	}
	return nil
}

// OpCounts are the operator statistics reported in Table 5 of the paper.
type OpCounts struct {
	Star  int // LFP column: Kleene closures
	Cat   int // '/' operators
	Union int // '∪' operators
}

// All returns the ALL column: every operator.
func (c OpCounts) All() int { return c.Star + c.Cat + c.Union }

// CountOps counts operators over the result expression and every equation
// transitively reachable from it. Variable references are counted once per
// occurrence (they are not expanded), matching CycleEX's accounting; a
// DescSelf annotation is not an operator, what its alternative costs is
// counted.
func (q *Query) CountOps() OpCounts {
	var c OpCounts
	needed := map[string]bool{}
	count := func(e Expr) {
		walk(e, func(e Expr) {
			switch e := e.(type) {
			case Var:
				needed[e.Name] = true
			case Cat:
				c.Cat++
			case Union:
				c.Union++
			case Star:
				c.Star++
			}
		})
	}
	count(q.Result)
	for i := len(q.Eqs) - 1; i >= 0; i-- {
		if needed[q.Eqs[i].X] {
			count(q.Eqs[i].E)
		}
	}
	return c
}

// Prune returns an equivalent query with
//  1. equations X = ∅ removed (occurrences replaced by ∅ and re-simplified),
//  2. alias equations X = Y and trivial bindings (X = ε, X = A) inlined, and
//  3. equations not contributing to the result expression dropped.
//
// These are exactly the three pruning rules of Fig 7, line 15 (Table.Prune).
func (q *Query) Prune() *Query {
	t := NewTable()
	vars := make([]Term, len(q.Eqs))
	for i, eq := range q.Eqs {
		vars[i] = t.Bind(eq.X, t.Intern(eq.E))
	}
	p, _ := t.Prune(vars, t.Intern(q.Result))
	return p
}

// Inline eliminates every variable, producing a single regular-XPath
// expression (no variables) equivalent to the query. This is the expansion
// the paper proves may be exponentially larger than the equation form; it is
// used by tests and by the CycleE comparison, never on user-facing paths.
func (q *Query) Inline() Expr {
	t := NewTable()
	sub := func(v Term, x int32) Term {
		if d := t.defs[x]; d >= 0 {
			return d
		}
		return v
	}
	for _, eq := range q.Eqs {
		t.Bind(eq.X, t.subst(t.Intern(eq.E), sub))
	}
	return t.Expr(t.subst(t.Intern(q.Result), sub))
}

// MkUnion builds L ∪ R simplifying ∅ ∪ p = p and deduplicating identical
// operands: it is Table.Union on the values, so operands are the same when
// they print alike, except that a label and a variable of one name are not.
func MkUnion(l, r Expr) Expr { t := NewTable(); return t.Expr(t.Union(t.Intern(l), t.Intern(r))) }
