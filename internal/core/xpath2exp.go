package core

import (
	"fmt"
	"slices"
	"strconv"
	"sync"

	"xpath2sql/internal/dtd"
	"xpath2sql/internal/expath"
	"xpath2sql/internal/xpath"
)

// RecStrategy selects how the descendant axis is represented.
type RecStrategy int

const (
	// RecFlat is the form the paper's generated SQL takes (§3.2,
	// Example 3.5): per strongly-connected component, one Kleene closure
	// over the union of the component's steps, composed along the
	// condensation DAG. It yields single-Φ plans that the push-selection
	// optimizer can seed from the query prefix; it is the default for the
	// "X" execution strategy.
	RecFlat RecStrategy = iota
	// RecCycleEX uses the variable-based dynamic program of Fig 7 — the
	// device behind the polynomial bound of Theorem 4.1, and the form whose
	// operator counts Table 5 reports.
	RecCycleEX
	// RecCycleE inlines Tarjan's variable-free regular expressions
	// (worst-case exponential; the paper's "E").
	RecCycleE
)

// XPathToEXp rewrites an XPath query Q over DTD D into an extended-XPath
// query equivalent to Q over every DTD containing D (Fig 8). The query is
// anchored at the virtual document root: its result relation holds pairs
// (root, answer).
func XPathToEXp(q xpath.Path, d *dtd.DTD, strategy RecStrategy) (*expath.Query, error) {
	return NewSchema(d).xpathToEXp(q, xpath.Print(q), strategy)
}

// xpathToEXp is XPathToEXp over the schema's DTD; pq is q printed.
func (s *Schema) xpathToEXp(q xpath.Path, pq xpath.Printed, strategy RecStrategy) (*expath.Query, error) {
	if s.err != nil {
		return nil, s.err
	}
	tr := newExTranslator(s.g, strategy)
	defer tr.release()
	// Local translations (Fig 8's postorder list L of sub-queries) are
	// computed on demand per (sub-query, A), memoized: only reachable
	// contexts matter.
	result := expath.ZeroTerm
	for _, x := range tr.translate(tr.number(q, pq), 0) {
		result = tr.t.Union(result, x.e)
	}
	out, err := tr.t.Prune(append(tr.recVars, tr.vars...), result)
	if err != nil {
		return nil, fmt.Errorf("core: internal error: %w", err)
	}
	return out, nil
}

// exTranslator is one run of XPathToEXp. Inside it every name is a number:
// types are the schema's type numbers, sub-queries are numbered once, and
// expressions are terms of one expath.Table, materialized as values only at
// the end. Nothing of it outlives the translation.
type exTranslator struct {
	g        *transGraph
	t        *expath.Table
	strategy RecStrategy
	subs     []sub
	memo     []span // per (sub-path class, type): its local translation's pairs, from -1 until made
	pairs    []typed
	labels   []expath.Term   // per type: its label step, ∅ until made
	recs     [][]expath.Term // rec(A, B) per type pair, for RecCycleEX and RecCycleE
	flat     *flatRec
	recVars  []expath.Term   // the variables of rec(A, B), in binding order
	vars     []expath.Term   // the query's own (Xp) variables, in binding order
	free     [][]expath.Term // per-type accumulators, all ∅
}

// sub is one node of the query: a sub-path, or a qualifier (p nil).
type sub struct {
	p    xpath.Path
	q    xpath.Qual
	l, r int32 // operand nodes; a label step's type, -1 when the name is none
	cls  int32 // a sub-path's memo class: shared exactly by sub-paths that print alike
}

// typed is one (B, x2e(p, A, B)) pair of a local translation.
type typed struct {
	b int32
	e expath.Term
}

type span struct{ from, to int32 }

// translators recycles the scratch of a translation — its term table,
// numbered query, memo and accumulators — emptied when put back: no query
// outlives its translation in it.
var translators = sync.Pool{New: func() any { return &exTranslator{t: expath.NewTable()} }}

func newExTranslator(g *transGraph, strategy RecStrategy) *exTranslator {
	tr := translators.Get().(*exTranslator)
	tr.g, tr.strategy = g, strategy
	tr.labels = slices.Grow(tr.labels[:0], len(g.nodes))[:len(g.nodes)]
	clear(tr.labels)
	if len(tr.free) > 0 && len(tr.free[0]) != len(g.nodes) {
		tr.free = nil // accumulators of another schema
	}
	switch strategy {
	case RecCycleEX:
		tr.recs = tr.tarjan(func(i, j, k int, e expath.Term) expath.Term {
			if tr.t.Trivial(e) {
				return e
			}
			return tr.bindVar(fmt.Sprintf("X[%d,%d,%d]", i, j, k), e, &tr.recVars)
		})
	case RecCycleE:
		tr.recs = tr.tarjan(func(_, _, _ int, e expath.Term) expath.Term { return e })
	default:
		tr.flat = newFlatRec(tr)
	}
	return tr
}

// release empties the translator into the pool; one whose table grew past
// 16k terms is left to the collector instead.
func (tr *exTranslator) release() {
	if tr.t.Len() > 1<<14 {
		return
	}
	tr.t.Reset()
	clear(tr.subs)
	*tr = exTranslator{t: tr.t, subs: tr.subs[:0], memo: tr.memo[:0], pairs: tr.pairs[:0], labels: tr.labels,
		recVars: tr.recVars[:0], vars: tr.vars[:0], free: tr.free}
	translators.Put(tr)
}

// number lists the query's sub-paths and qualifiers in post-order (one walk)
// and returns the root's index. A sub-path's memo class is the number of its
// printed form (xpath.Printed.Classes of pq, q printed): sub-paths share the
// memo when they print alike.
func (tr *exTranslator) number(q xpath.Path, pq xpath.Printed) int32 {
	classes, nc := pq.Classes()
	add := func(n sub) int32 {
		tr.subs = append(tr.subs, n)
		return int32(len(tr.subs) - 1)
	}
	var path func(p xpath.Path) int32
	var qual func(q xpath.Qual) int32
	path = func(p xpath.Path) int32 {
		n := sub{p: p, l: -1, r: -1}
		switch p := p.(type) {
		case xpath.Label:
			if b, ok := tr.g.num[p.Name]; ok {
				n.l = b
			}
		case xpath.Seq:
			n.l, n.r = path(p.L), path(p.R)
		case xpath.Union:
			n.l, n.r = path(p.L), path(p.R)
		case xpath.Desc:
			n.l = path(p.P)
		case xpath.Filter:
			n.l, n.r = path(p.P), qual(p.Q)
		}
		n.cls, classes = classes[0], classes[1:]
		return add(n)
	}
	qual = func(q xpath.Qual) int32 {
		n := sub{q: q, l: -1, r: -1}
		switch q := q.(type) {
		case xpath.QPath:
			n.l = path(q.P)
		case xpath.QNot:
			n.l = qual(q.Q)
		case xpath.QAnd:
			n.l, n.r = qual(q.L), qual(q.R)
		case xpath.QOr:
			n.l, n.r = qual(q.L), qual(q.R)
		}
		return add(n)
	}
	root := path(q)
	k := nc * len(tr.g.nodes)
	tr.memo = slices.Grow(tr.memo[:0], k)[:k]
	for i := range tr.memo {
		tr.memo[i].from = -1
	}
	return root
}

// label is the child step to b, one term per type.
func (tr *exTranslator) label(b int32) expath.Term {
	if tr.labels[b] == expath.ZeroTerm {
		tr.labels[b] = tr.t.Label(tr.g.nodes[b])
	}
	return tr.labels[b]
}

// rec returns the expression for all DTD paths from a to c (ε when a == c).
// The flat form is wrapped in a DescSelf annotation so the relational
// translation can answer the descendant closure with a document-order
// interval scan (falling back to the wrapped fixpoint plan when the stored
// encoding is missing or mismatched). Trivial closures and the virtual
// document root — which has no stored relation to anchor a containment scan —
// stay unannotated.
func (tr *exTranslator) rec(a, c int32) expath.Term {
	if tr.flat == nil {
		return tr.recs[a][c]
	}
	e := tr.flat.d(a, c)
	if e == expath.ZeroTerm || e == expath.EpsTerm || a == 0 || c == 0 {
		return e
	}
	return tr.t.Desc(tr.g.nodes[a], tr.g.nodes[c], e)
}

// bindVar binds e to the variable name and records it in vars.
func (tr *exTranslator) bindVar(name string, e expath.Term, vars *[]expath.Term) expath.Term {
	v := tr.t.Bind(name, e)
	*vars = append(*vars, v)
	return v
}

// bind ensures composite expressions are shared through a variable so the
// output stays polynomial (the role of X_p(A,B) in Fig 8).
func (tr *exTranslator) bind(e expath.Term) expath.Term {
	if tr.t.Trivial(e) {
		return e
	}
	return tr.bindVar("Xp"+strconv.Itoa(len(tr.vars)+1), e, &tr.vars)
}

// translate computes the local translations x2e(p, A, B) of sub-path i at
// type a for every B in reach(p, A): the pairs (B, expression) in type order,
// each composite expression bound to a variable. Memoized on (p, A). Every
// loop whose body binds a counter-named variable, emits an equation or
// extends a union walks pairs in type order — name order — so a
// translation's text is a function of its input.
func (tr *exTranslator) translate(i, a int32) []typed {
	k := tr.subs[i].cls*int32(len(tr.g.nodes)) + a
	if m := tr.memo[k]; m.from >= 0 {
		return tr.pairs[m.from:m.to:m.to]
	}
	var acc []expath.Term
	if n := len(tr.free); n > 0 {
		acc, tr.free = tr.free[n-1], tr.free[:n-1]
	} else {
		acc = make([]expath.Term, len(tr.g.nodes))
	}
	tr.local(i, a, acc)
	from := int32(len(tr.pairs))
	for b, e := range acc {
		if e != expath.ZeroTerm {
			tr.pairs = append(tr.pairs, typed{int32(b), tr.bind(e)})
			acc[b] = expath.ZeroTerm
		}
	}
	tr.free = append(tr.free, acc)
	tr.memo[k] = span{from, int32(len(tr.pairs))}
	return tr.pairs[from:len(tr.pairs):len(tr.pairs)]
}

// local accumulates the local translations of sub-path i at type a into acc,
// indexed by target type (∅ where there is none).
func (tr *exTranslator) local(i, a int32, acc []expath.Term) {
	t, s := tr.t, tr.subs[i]
	switch s.p.(type) {
	case xpath.Empty: // case (1)
		acc[a] = expath.EpsTerm
	case xpath.Label: // case (2)
		if s.l >= 0 && tr.g.hasEdge(a, s.l) {
			acc[s.l] = tr.label(s.l)
		}
	case xpath.Wildcard: // case (3)
		for _, b := range tr.g.kids[a] {
			acc[b] = tr.label(b)
		}
	case xpath.Seq: // case (4): p1/p2
		for _, c := range tr.translate(s.l, a) {
			for _, x := range tr.translate(s.r, c.b) {
				acc[x.b] = t.Union(acc[x.b], t.Cat(c.e, x.e))
			}
		}
	case xpath.Desc: // case (5): //p1
		for _, c := range tr.g.reachOrSelf(a) {
			if recE := tr.rec(a, c); recE != expath.ZeroTerm {
				for _, x := range tr.translate(s.l, c) {
					acc[x.b] = t.Union(acc[x.b], t.Cat(recE, x.e))
				}
			}
		}
	case xpath.Union: // case (6)
		for _, x := range tr.translate(s.l, a) {
			acc[x.b] = x.e
		}
		for _, x := range tr.translate(s.r, a) {
			acc[x.b] = t.Union(acc[x.b], x.e)
		}
	case xpath.Filter: // case (7): p1[q]
		for _, x := range tr.translate(s.l, a) {
			acc[x.b] = t.Qual(x.e, tr.rewQual(s.r, x.b))
		}
	}
}

// rewQual is procedure RewQual (Fig 9): it translates qualifier node j for
// evaluation at an element of type at, statically deciding it from the DTD
// structure when possible (⊤ = ε, ⊥ = ∅).
func (tr *exTranslator) rewQual(j, at int32) expath.Term {
	t, s := tr.t, tr.subs[j]
	switch q := s.q.(type) {
	case xpath.QPath:
		// No node reachable via p from an 'at' element makes [p] statically
		// false (the union stays ∅); ε ∈ p at this context makes it true,
		// the context node itself witnessing [p].
		u, nullable := expath.ZeroTerm, false
		for _, x := range tr.translate(s.l, at) {
			nullable = t.Nullable(x.e) || nullable
			u = t.Union(u, x.e)
		}
		if nullable {
			return expath.EpsTerm
		}
		return u
	case xpath.QText:
		return t.Text(q.C)
	case xpath.QNot:
		return t.Not(tr.rewQual(s.l, at))
	case xpath.QAnd:
		return t.And(tr.rewQual(s.l, at), tr.rewQual(s.r, at))
	case xpath.QOr:
		return t.Or(tr.rewQual(s.l, at), tr.rewQual(s.r, at))
	}
	return expath.ZeroTerm
}
