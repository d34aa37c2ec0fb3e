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
	"strings"
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

func (c Cat) String() string {
	return paren(c.L, 1) + "/" + paren(c.R, 1)
}

func (u Union) String() string {
	return u.L.String() + " ∪ " + u.R.String()
}

func (s Star) String() string { return paren(s.E, 2) + "*" }

func (q Qualified) String() string {
	return paren(q.E, 1) + "[" + q.Q.String() + "]"
}

func (d DescSelf) String() string {
	return "desc⟨" + d.From + "↝" + d.To + "⟩(" + d.Alt.String() + ")"
}

// paren parenthesizes operands whose precedence is below the context level:
// level 1 = operand of '/', level 2 = operand of '*'.
func paren(e Expr, level int) string {
	switch e.(type) {
	case Union:
		return "(" + e.String() + ")"
	case Cat:
		if level >= 2 {
			return "(" + e.String() + ")"
		}
	case Qualified:
		if level >= 2 {
			return "(" + e.String() + ")"
		}
	}
	return e.String()
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
func (q QExpr) String() string { return q.E.String() }
func (q QText) String() string { return fmt.Sprintf("text()=%q", q.C) }
func (q QNot) String() string  { return "¬(" + q.Q.String() + ")" }
func (q QAnd) String() string  { return "(" + q.L.String() + " ∧ " + q.R.String() + ")" }
func (q QOr) String() string   { return "(" + q.L.String() + " ∨ " + q.R.String() + ")" }

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

func (q *Query) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "result = %s\n", q.Result.String())
	for i := len(q.Eqs) - 1; i >= 0; i-- {
		fmt.Fprintf(&b, "%s = %s\n", q.Eqs[i].X, q.Eqs[i].E.String())
	}
	return b.String()
}

// Lookup returns the expression bound to variable x, or nil.
func (q *Query) Lookup(x string) Expr {
	for i := range q.Eqs {
		if q.Eqs[i].X == x {
			return q.Eqs[i].E
		}
	}
	return nil
}

// FreeVars returns the variables referenced by e, sorted.
func FreeVars(e Expr) []string {
	set := map[string]bool{}
	collectVars(e, set)
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func collectVars(e Expr, set map[string]bool) {
	switch e := e.(type) {
	case Var:
		set[e.Name] = true
	case Cat:
		collectVars(e.L, set)
		collectVars(e.R, set)
	case Union:
		collectVars(e.L, set)
		collectVars(e.R, set)
	case Star:
		collectVars(e.E, set)
	case Qualified:
		collectVars(e.E, set)
		collectQualVars(e.Q, set)
	case DescSelf:
		collectVars(e.Alt, set)
	}
}

func collectQualVars(q Qual, set map[string]bool) {
	switch q := q.(type) {
	case QExpr:
		collectVars(q.E, set)
	case QNot:
		collectQualVars(q.Q, set)
	case QAnd:
		collectQualVars(q.L, set)
		collectQualVars(q.R, set)
	case QOr:
		collectQualVars(q.L, set)
		collectQualVars(q.R, set)
	}
}

// Validate checks the dependency ordering invariant of the query and that
// every referenced variable is bound.
func (q *Query) Validate() error {
	bound := map[string]bool{}
	for i, eq := range q.Eqs {
		for _, v := range FreeVars(eq.E) {
			if !bound[v] {
				return fmt.Errorf("expath: equation %d (%s) references unbound variable %s", i, eq.X, v)
			}
		}
		if bound[eq.X] {
			return fmt.Errorf("expath: variable %s bound twice", eq.X)
		}
		bound[eq.X] = true
	}
	for _, v := range FreeVars(q.Result) {
		if !bound[v] {
			return fmt.Errorf("expath: result references unbound variable %s", v)
		}
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
// occurrence (they are not expanded), matching CycleEX's accounting.
func (q *Query) CountOps() OpCounts {
	var c OpCounts
	needed := map[string]bool{}
	mark := func(e Expr) {
		for _, v := range FreeVars(e) {
			needed[v] = true
		}
	}
	mark(q.Result)
	for i := len(q.Eqs) - 1; i >= 0; i-- {
		if needed[q.Eqs[i].X] {
			mark(q.Eqs[i].E)
		}
	}
	var count func(e Expr)
	var countQ func(qq Qual)
	count = func(e Expr) {
		switch e := e.(type) {
		case Cat:
			c.Cat++
			count(e.L)
			count(e.R)
		case Union:
			c.Union++
			count(e.L)
			count(e.R)
		case Star:
			c.Star++
			count(e.E)
		case Qualified:
			count(e.E)
			countQ(e.Q)
		case DescSelf:
			// An execution annotation, not an operator: count what the
			// annotated alternative costs.
			count(e.Alt)
		}
	}
	countQ = func(qq Qual) {
		switch qq := qq.(type) {
		case QExpr:
			count(qq.E)
		case QNot:
			countQ(qq.Q)
		case QAnd:
			countQ(qq.L)
			countQ(qq.R)
		case QOr:
			countQ(qq.L)
			countQ(qq.R)
		}
	}
	count(q.Result)
	for i := range q.Eqs {
		if needed[q.Eqs[i].X] {
			count(q.Eqs[i].E)
		}
	}
	return c
}

// --- Smart constructors with the ∅/ε algebra of §2.2 ---

// MkUnion builds L ∪ R simplifying ∅ ∪ p = p and deduplicating identical
// operands.
func MkUnion(l, r Expr) Expr {
	if _, ok := l.(Zero); ok {
		return r
	}
	if _, ok := r.(Zero); ok {
		return l
	}
	if l.String() == r.String() {
		return l
	}
	return Union{L: l, R: r}
}

// MkCat builds L/R simplifying p/∅ = ∅/p = ∅ and ε/p = p/ε = p.
func MkCat(l, r Expr) Expr {
	if _, ok := l.(Zero); ok {
		return Zero{}
	}
	if _, ok := r.(Zero); ok {
		return Zero{}
	}
	if _, ok := l.(Eps); ok {
		return r
	}
	if _, ok := r.(Eps); ok {
		return l
	}
	return Cat{L: l, R: r}
}

// MkStar builds E* simplifying ∅* = ε* = ε and (E*)* = E*.
func MkStar(e Expr) Expr {
	switch e.(type) {
	case Zero, Eps:
		return Eps{}
	case Star:
		return e
	}
	return Star{E: e}
}

// MkQual builds E[q], simplifying statically-decided qualifiers:
// E[⊤] = E and E[⊥] = ∅ (XPathToEXp case 7).
func MkQual(e Expr, q Qual) Expr {
	if _, ok := e.(Zero); ok {
		return Zero{}
	}
	switch q.(type) {
	case QTrue:
		return e
	case QFalse:
		return Zero{}
	}
	return Qualified{E: e, Q: q}
}

// MkNot simplifies ¬⊤ = ⊥ and ¬⊥ = ⊤ (procedure optimize, Fig 9).
func MkNot(q Qual) Qual {
	switch q := q.(type) {
	case QTrue:
		return QFalse{}
	case QFalse:
		return QTrue{}
	case QNot:
		return q.Q
	}
	return QNot{Q: q}
}

// MkAnd simplifies conjunction with static truth values.
func MkAnd(l, r Qual) Qual {
	if _, ok := l.(QFalse); ok {
		return QFalse{}
	}
	if _, ok := r.(QFalse); ok {
		return QFalse{}
	}
	if _, ok := l.(QTrue); ok {
		return r
	}
	if _, ok := r.(QTrue); ok {
		return l
	}
	return QAnd{L: l, R: r}
}

// MkOr simplifies disjunction with static truth values.
func MkOr(l, r Qual) Qual {
	if _, ok := l.(QTrue); ok {
		return QTrue{}
	}
	if _, ok := r.(QTrue); ok {
		return QTrue{}
	}
	if _, ok := l.(QFalse); ok {
		return r
	}
	if _, ok := r.(QFalse); ok {
		return l
	}
	return QOr{L: l, R: r}
}
