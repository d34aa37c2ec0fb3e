package expath

import "fmt"

// Term is an expression or qualifier numbered in a Table. Inside a table the
// qualifier [E] is E's own term, ⊤ is ε and ⊥ is ∅: each pair prints alike,
// and the smart constructors treat them alike.
type Term int32

// The two terms every table starts with.
const (
	ZeroTerm Term = 0 // ∅, and the qualifier ⊥
	EpsTerm  Term = 1 // ε, and the qualifier ⊤
)

type kind uint8

const (
	kZero kind = iota
	kEps
	kLabel // a: name
	kEdge  // a, b: names
	kVar   // a: name
	kCat   // a, b: operands
	kUnion // a, b: operands
	kStar  // a: operand
	kQual  // a: expression, b: qualifier
	kDesc  // a, b: names, c: the alternative
	kText  // a: the literal, as a name
	kNot   // a: operand
	kAnd   // a, b: operands
	kOr    // a, b: operands
)

// key is a node's kind, operands and names; with operands replaced by their
// classes, it is the key of a printed-form class. There ∪ and / build lists,
// left-nested as (list, last item), and E[q] on a concatenation qualifies its
// last item: the printer parenthesizes neither ∪ nor / in itself, nor E[q] in /.
type key struct {
	k       kind
	a, b, c int32
}

type node struct {
	key
	cls int32 // printed-form class, -1 until asked
}

// Table numbers the terms of one translation: the smart constructors simplify
// on numbers, Same compares terms by the class of their printed form, and
// values are materialized at the end (Expr, Prune), each term at most once. A
// Table is not safe for concurrent use.
type Table struct {
	nodes  []node
	names  []string // labels, variables and literals, by name number
	nameID map[string]int32
	defs   []Term // per name number: a variable's binding, -1 when it has none
	null   []int8 // per name number: a variable's nullability, 0 unknown, 1 no, 2 yes
	keys   []key  // per class
	class  map[key]int32
	vals   []Expr // per term: its value, once materialized
}

// NewTable returns a table holding ∅ and ε.
func NewTable() *Table {
	return &Table{nodes: []node{{key{k: kZero}, -1}, {key{k: kEps}, -1}},
		nameID: map[string]int32{}, class: map[key]int32{}}
}

// Reset empties the table for reuse, keeping its storage.
func (t *Table) Reset() {
	clear(t.names)
	clear(t.vals)
	clear(t.nameID)
	clear(t.class)
	t.nodes, t.names, t.defs, t.null, t.keys, t.vals = t.nodes[:2], t.names[:0], t.defs[:0], t.null[:0], t.keys[:0], t.vals[:0]
	t.nodes[0].cls, t.nodes[1].cls = -1, -1
}

// Len returns how many terms the table holds.
func (t *Table) Len() int { return len(t.nodes) }

func (t *Table) add(k kind, a, b, c int32) Term {
	t.nodes = append(t.nodes, node{key{k, a, b, c}, -1})
	return Term(len(t.nodes) - 1)
}

func (t *Table) name(s string) int32 {
	if id, ok := t.nameID[s]; ok {
		return id
	}
	t.nameID[s] = int32(len(t.names))
	t.names, t.defs, t.null = append(t.names, s), append(t.defs, -1), append(t.null, 0)
	return int32(len(t.names) - 1)
}

// Label is the child step to elements labeled name.
func (t *Table) Label(name string) Term { return t.add(kLabel, t.name(name), 0, 0) }

// Edge is the child step from a from-labeled element to a to-labeled child.
func (t *Table) Edge(from, to string) Term { return t.add(kEdge, t.name(from), t.name(to), 0) }

// Var references the variable name.
func (t *Table) Var(name string) Term { return t.add(kVar, t.name(name), 0, 0) }

// Text is the qualifier [text() = c].
func (t *Table) Text(c string) Term { return t.add(kText, t.name(c), 0, 0) }

// Bind binds the variable name to e and returns a reference to it.
func (t *Table) Bind(name string, e Term) Term {
	v := t.Var(name)
	t.defs[t.nodes[v].a] = e
	return v
}

// Union is l ∪ r, simplifying ∅ ∪ p = p ∪ ∅ = p and p ∪ p = p for operands
// that print alike (Same).
func (t *Table) Union(l, r Term) Term {
	switch {
	case l == ZeroTerm:
		return r
	case r == ZeroTerm, t.Same(l, r):
		return l
	}
	return t.add(kUnion, int32(l), int32(r), 0)
}

// Cat is l/r, simplifying p/∅ = ∅/p = ∅ and ε/p = p/ε = p.
func (t *Table) Cat(l, r Term) Term { return t.op(kCat, ZeroTerm, EpsTerm, l, r) }

// And is l ∧ r with the static truth values decided: the algebra of Cat, ⊥
// being ∅ and ⊤ ε.
func (t *Table) And(l, r Term) Term { return t.op(kAnd, ZeroTerm, EpsTerm, l, r) }

// Or is l ∨ r with the static truth values decided.
func (t *Table) Or(l, r Term) Term { return t.op(kOr, EpsTerm, ZeroTerm, l, r) }

// op is the k-term of l and r where zero absorbs and one is the identity.
func (t *Table) op(k kind, zero, one, l, r Term) Term {
	switch {
	case l == zero || r == zero:
		return zero
	case l == one:
		return r
	case r == one:
		return l
	}
	return t.add(k, int32(l), int32(r), 0)
}

// Star is e*, simplifying ∅* = ε* = ε and (e*)* = e*.
func (t *Table) Star(e Term) Term {
	switch {
	case e == ZeroTerm || e == EpsTerm:
		return EpsTerm
	case t.nodes[e].k == kStar:
		return e
	}
	return t.add(kStar, int32(e), 0, 0)
}

// Qual is e[q], simplifying e[⊤] = e and e[⊥] = ∅ (XPathToEXp case 7).
func (t *Table) Qual(e, q Term) Term {
	switch {
	case e == ZeroTerm || q == ZeroTerm:
		return ZeroTerm
	case q == EpsTerm:
		return e
	}
	return t.add(kQual, int32(e), int32(q), 0)
}

// Desc is DescSelf{from, to, alt}, ∅ when alt is.
func (t *Table) Desc(from, to string, alt Term) Term {
	if alt == ZeroTerm {
		return ZeroTerm
	}
	return t.add(kDesc, t.name(from), t.name(to), int32(alt))
}

// Not is ¬q, simplifying ¬⊤ = ⊥, ¬⊥ = ⊤ and ¬¬q = q (procedure optimize, Fig 9).
func (t *Table) Not(q Term) Term {
	switch {
	case q == EpsTerm:
		return ZeroTerm
	case q == ZeroTerm:
		return EpsTerm
	case t.nodes[q].k == kNot:
		return Term(t.nodes[q].a)
	}
	return t.add(kNot, int32(q), 0, 0)
}

// Trivial reports whether e is ∅, ε, a step or a variable: what a binding
// inlines instead of naming.
func (t *Table) Trivial(e Term) bool { return t.nodes[e].k <= kVar }

// Same reports whether a and b print alike, except that a label and a
// variable of one name differ: the class keys on kind.
func (t *Table) Same(a, b Term) bool {
	ka, kb := t.nodes[a].k, t.nodes[b].k
	switch {
	case a == b:
		return true
	case ka != kb && !(ka == kCat && kb == kQual || ka == kQual && kb == kCat):
		return false // a class has its term's kind, or a concatenation's for a qualified one
	case ka <= kVar || ka == kText:
		return t.nodes[a].key == t.nodes[b].key // a leaf's class is its key
	}
	return t.classOf(a) == t.classOf(b)
}

func (t *Table) classOf(e Term) int32 {
	n := t.nodes[e]
	if n.cls >= 0 {
		return n.cls
	}
	var c int32
	switch n.k {
	case kCat, kUnion:
		c = t.snoc(n.k, t.classOf(Term(n.a)), t.classOf(Term(n.b)))
	case kQual:
		c = t.onLast(t.classOf(Term(n.a)), t.classOf(Term(n.b)))
	case kStar, kNot:
		c = t.intern(key{k: n.k, a: t.classOf(Term(n.a))})
	case kAnd, kOr:
		c = t.intern(key{k: n.k, a: t.classOf(Term(n.a)), b: t.classOf(Term(n.b))})
	case kDesc:
		c = t.intern(key{k: n.k, a: n.a, b: n.b, c: t.classOf(Term(n.c))})
	default:
		c = t.intern(n.key)
	}
	t.nodes[e].cls = c
	return c
}

// snoc is the class of list a (a k-list, or one item) followed by the items of b.
func (t *Table) snoc(k kind, a, b int32) int32 {
	if kb := t.keys[b]; kb.k == k {
		return t.intern(key{k: k, a: t.snoc(k, a, kb.a), b: kb.b})
	}
	return t.intern(key{k: k, a: a, b: b})
}

// onLast is the class of e[q]: on a concatenation, q qualifies its last item.
func (t *Table) onLast(e, q int32) int32 {
	if ke := t.keys[e]; ke.k == kCat {
		return t.intern(key{k: kCat, a: ke.a, b: t.onLast(ke.b, q)})
	}
	return t.intern(key{k: kQual, a: e, b: q})
}

func (t *Table) intern(k key) int32 {
	if c, ok := t.class[k]; ok {
		return c
	}
	t.class[k] = int32(len(t.keys))
	t.keys = append(t.keys, k)
	return int32(len(t.keys) - 1)
}

// Nullable reports whether ε is in e's language, chasing variables through
// their bindings (memoized per variable: bindings are acyclic). A qualified
// expression counts as not nullable: its qualifier may fail at the context
// node.
func (t *Table) Nullable(e Term) bool {
	n := t.nodes[e]
	switch n.k {
	case kEps, kStar:
		return true
	case kCat:
		return t.Nullable(Term(n.a)) && t.Nullable(Term(n.b))
	case kUnion:
		return t.Nullable(Term(n.a)) || t.Nullable(Term(n.b))
	case kDesc:
		return t.Nullable(Term(n.c))
	case kVar:
		if t.null[n.a] == 0 {
			t.null[n.a] = 1
			if d := t.defs[n.a]; d >= 0 && t.Nullable(d) {
				t.null[n.a] = 2
			}
		}
		return t.null[n.a] == 2
	}
	return false
}

// subst rewrites e bottom up through the smart constructors, replacing each
// variable v (name number x) by f(v, x); a term none of whose operands change
// is kept.
func (t *Table) subst(e Term, f func(v Term, x int32) Term) Term {
	n := t.nodes[e]
	a, b, c := Term(n.a), Term(n.b), Term(n.c)
	switch n.k {
	case kVar:
		return f(e, n.a)
	case kCat, kUnion, kQual, kAnd, kOr:
		a, b = t.subst(a, f), t.subst(b, f)
	case kStar, kNot:
		a = t.subst(a, f)
	case kDesc:
		c = t.subst(c, f)
	default:
		return e
	}
	if a == Term(n.a) && b == Term(n.b) && c == Term(n.c) {
		return e
	}
	switch n.k {
	case kCat:
		return t.Cat(a, b)
	case kUnion:
		return t.Union(a, b)
	case kQual:
		return t.Qual(a, b)
	case kAnd:
		return t.And(a, b)
	case kOr:
		return t.Or(a, b)
	case kStar:
		return t.Star(a)
	case kNot:
		return t.Not(a)
	}
	if c == ZeroTerm { // a DescSelf denotes its alternative
		return ZeroTerm
	}
	return t.add(kDesc, n.a, n.b, int32(c))
}

// Prune is Query.Prune on numbers. vars are the query's variables in
// dependency order, bound by Bind, and result its result. One walk in that
// order substitutes every binding that is ∅, ε, a step or a variable into the
// later ones (rules 1–2 of Fig 7, line 15) and checks that each variable is
// bound once and before it is used; a walk back from the result keeps the
// equations it reaches (rule 3). The query is materialized from what is left.
// The kept bindings are rewritten in the table, so pruning again, for another
// result, gives what pruning once would.
func (t *Table) Prune(vars []Term, result Term) (*Query, error) {
	const unbound, kept, inlined, needed = 0, 1, 2, 3
	state, to := make([]int8, len(t.names)), make([]Term, len(t.names))
	var err error
	sub := func(v Term, x int32) Term {
		switch state[x] {
		case inlined:
			return to[x]
		case unbound:
			if err == nil {
				err = fmt.Errorf("expath: variable %s is used before it is bound", t.names[x])
			}
		}
		return v
	}
	live := make([]int32, 0, len(vars))
	for _, v := range vars {
		x := t.nodes[v].a
		if state[x] != unbound {
			err = fmt.Errorf("expath: variable %s bound twice", t.names[x])
			continue
		}
		if e := t.subst(t.defs[x], sub); t.Trivial(e) {
			state[x], to[x] = inlined, e
		} else {
			state[x], t.defs[x] = kept, e
			live = append(live, x)
		}
	}
	result = t.subst(result, sub)
	need := func(v Term, x int32) Term { state[x] = needed; return v }
	t.subst(result, need)
	for i := len(live) - 1; i >= 0; i-- {
		if state[live[i]] == needed {
			t.subst(t.defs[live[i]], need)
		}
	}
	q := &Query{Result: t.Expr(result)}
	for _, x := range live {
		if state[x] == needed {
			q.Eqs = append(q.Eqs, Equation{X: t.names[x], E: t.Expr(t.defs[x])})
		}
	}
	return q, err
}

// Expr materializes e as a value. Every term is materialized once: a term
// shared by several others is one shared value.
func (t *Table) Expr(e Term) Expr {
	if len(t.vals) < len(t.nodes) {
		t.vals = append(t.vals, make([]Expr, len(t.nodes)-len(t.vals))...)
	}
	if v := t.vals[e]; v != nil {
		return v
	}
	var v Expr
	switch n := t.nodes[e]; n.k {
	case kZero:
		v = Zero{}
	case kEps:
		v = Eps{}
	case kLabel:
		v = Label{Name: t.names[n.a]}
	case kEdge:
		v = Edge{From: t.names[n.a], To: t.names[n.b]}
	case kVar:
		v = Var{Name: t.names[n.a]}
	case kCat:
		v = Cat{L: t.Expr(Term(n.a)), R: t.Expr(Term(n.b))}
	case kUnion:
		v = Union{L: t.Expr(Term(n.a)), R: t.Expr(Term(n.b))}
	case kStar:
		v = Star{E: t.Expr(Term(n.a))}
	case kQual:
		v = Qualified{E: t.Expr(Term(n.a)), Q: t.QualOf(Term(n.b))}
	case kDesc:
		v = DescSelf{From: t.names[n.a], To: t.names[n.b], Alt: t.Expr(Term(n.c))}
	default:
		panic(fmt.Sprintf("expath: term %d is a qualifier, not an expression", e))
	}
	t.vals[e] = v
	return v
}

// QualOf materializes q as a qualifier: ε is ⊤, ∅ is ⊥, any other expression E
// is [E].
func (t *Table) QualOf(q Term) Qual {
	switch n := t.nodes[q]; n.k {
	case kZero:
		return QFalse{}
	case kEps:
		return QTrue{}
	case kText:
		return QText{C: t.names[n.a]}
	case kNot:
		return QNot{Q: t.QualOf(Term(n.a))}
	case kAnd:
		return QAnd{L: t.QualOf(Term(n.a)), R: t.QualOf(Term(n.b))}
	case kOr:
		return QOr{L: t.QualOf(Term(n.a)), R: t.QualOf(Term(n.b))}
	}
	return QExpr{E: t.Expr(q)}
}

// Intern numbers a value through the smart constructors.
func (t *Table) Intern(e Expr) Term {
	switch e := e.(type) {
	case Zero:
		return ZeroTerm
	case Eps:
		return EpsTerm
	case Label:
		return t.Label(e.Name)
	case Edge:
		return t.Edge(e.From, e.To)
	case Var:
		return t.Var(e.Name)
	case Cat:
		return t.Cat(t.Intern(e.L), t.Intern(e.R))
	case Union:
		return t.Union(t.Intern(e.L), t.Intern(e.R))
	case Star:
		return t.Star(t.Intern(e.E))
	case Qualified:
		return t.Qual(t.Intern(e.E), t.InternQual(e.Q))
	case DescSelf:
		return t.Desc(e.From, e.To, t.Intern(e.Alt))
	}
	panic(fmt.Sprintf("expath: unknown expression %T", e))
}

// InternQual numbers a qualifier through the smart constructors.
func (t *Table) InternQual(q Qual) Term {
	switch q := q.(type) {
	case QTrue:
		return EpsTerm
	case QFalse:
		return ZeroTerm
	case QExpr:
		return t.Intern(q.E)
	case QText:
		return t.Text(q.C)
	case QNot:
		return t.Not(t.InternQual(q.Q))
	case QAnd:
		return t.And(t.InternQual(q.L), t.InternQual(q.R))
	case QOr:
		return t.Or(t.InternQual(q.L), t.InternQual(q.R))
	}
	panic(fmt.Sprintf("expath: unknown qualifier %T", q))
}

// Equations materializes the bindings of vars, in order.
func (t *Table) Equations(vars []Term) []Equation {
	eqs := make([]Equation, len(vars))
	for i, v := range vars {
		x := t.nodes[v].a
		eqs[i] = Equation{X: t.names[x], E: t.Expr(t.defs[x])}
	}
	return eqs
}
