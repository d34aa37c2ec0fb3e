package core

import (
	"fmt"
	"sort"

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
	return NewSchema(d).xpathToEXp(q, strategy)
}

func (s *Schema) xpathToEXp(q xpath.Path, strategy RecStrategy) (*expath.Query, error) {
	if s.err != nil {
		return nil, s.err
	}
	t := s.g
	tr := &exTranslator{
		g:        t,
		strategy: strategy,
		x2e:      map[string]expath.Expr{},
		reach:    map[string]map[string]bool{},
		defs:     map[string]expath.Expr{},
	}
	switch strategy {
	case RecCycleEX:
		tr.recs = CycleEX(t)
		for _, eq := range tr.recs.Eqs {
			tr.defs[eq.X] = eq.E
		}
	case RecFlat:
		tr.flat = newFlatRec(t)
	}
	// Local translations (Fig 8's postorder list L of sub-queries) are
	// computed on demand per (sub-query, A), memoized: only reachable
	// contexts matter.
	exprs := tr.translate(q, DocType)
	var result expath.Expr = expath.Zero{}
	for _, b := range exprs.targets() {
		result = expath.MkUnion(result, exprs[b])
	}
	eqs := tr.eqs
	switch {
	case tr.recs != nil:
		eqs = append(append([]expath.Equation{}, tr.recs.Eqs...), eqs...)
	case tr.flat != nil:
		eqs = append(append([]expath.Equation{}, tr.flat.eqs...), eqs...)
	}
	out := &expath.Query{Eqs: eqs, Result: result}
	out = out.Prune()
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("core: internal error: %w", err)
	}
	return out, nil
}

type exTranslator struct {
	g        *transGraph
	strategy RecStrategy
	recs     *RecSet
	flat     *flatRec
	eqs      []expath.Equation
	// x2e memoizes the dynamic program: key "pA→B" -> expression (a Var for
	// composite bindings). reach memoizes reach(p, A). defs indexes every
	// equation for nullability analysis.
	x2e     map[string]expath.Expr
	reach   map[string]map[string]bool
	defs    map[string]expath.Expr
	counter int
}

// rec returns the expression for all DTD paths from a to c (ε when a == c).
func (tr *exTranslator) rec(a, c string) expath.Expr {
	switch tr.strategy {
	case RecCycleE:
		return CycleE(tr.g, a, c)
	case RecCycleEX:
		return tr.recs.Rec(a, c)
	default:
		before := len(tr.flat.eqs)
		e := tr.flat.Rec(a, c)
		for _, eq := range tr.flat.eqs[before:] {
			tr.defs[eq.X] = eq.E
		}
		return tr.annotateDesc(a, c, e)
	}
}

// annotateDesc wraps a rec(a, c) expression in a DescSelf annotation so the
// relational translation can answer the descendant closure with a
// document-order interval scan (falling back to the wrapped fixpoint plan
// when the stored encoding is missing or mismatched). Trivial closures and
// the virtual document root — which has no stored relation to anchor a
// containment scan — stay unannotated.
func (tr *exTranslator) annotateDesc(a, c string, e expath.Expr) expath.Expr {
	switch e.(type) {
	case expath.Zero, expath.Eps:
		return e
	}
	if a == DocType || c == DocType {
		return e
	}
	return expath.DescSelf{From: a, To: c, Alt: e}
}

// bind ensures composite expressions are shared through a variable so the
// output stays polynomial (the role of X_p(A,B) in Fig 8).
func (tr *exTranslator) bind(e expath.Expr) expath.Expr {
	switch e.(type) {
	case expath.Zero, expath.Eps, expath.Label, expath.Edge, expath.Var:
		return e
	}
	tr.counter++
	x := fmt.Sprintf("Xp%d", tr.counter)
	tr.eqs = append(tr.eqs, expath.Equation{X: x, E: e})
	tr.defs[x] = e
	return expath.Var{Name: x}
}

func pKey(p xpath.Path, a string) string { return p.String() + "\x00" + a }

// translate computes the local translations x2e(p, A, B) for every B in
// reach(p, A), returning the map B -> expression. Memoized on (p, A).
type exprMap map[string]expath.Expr

// targets lists the map's types in sorted order. Every loop whose body binds
// a counter-named variable, emits an equation or extends a union walks the
// map through it, so a translation's text never depends on map order.
func (m exprMap) targets() []string {
	out := make([]string, 0, len(m))
	for b := range m {
		out = append(out, b)
	}
	sort.Strings(out)
	return out
}

func (tr *exTranslator) translate(p xpath.Path, a string) exprMap {
	key := pKey(p, a)
	if tr.reach[key] != nil {
		out := exprMap{}
		for b := range tr.reach[key] {
			out[b] = tr.x2e[key+"\x00"+b]
		}
		return out
	}
	out := tr.translateUncached(p, a)
	reach := map[string]bool{}
	for _, b := range out.targets() {
		e := out[b]
		if _, zero := e.(expath.Zero); zero {
			delete(out, b)
			continue
		}
		e = tr.bind(e)
		out[b] = e
		reach[b] = true
		tr.x2e[key+"\x00"+b] = e
	}
	tr.reach[key] = reach
	return out
}

func (tr *exTranslator) translateUncached(p xpath.Path, a string) exprMap {
	out := exprMap{}
	switch p := p.(type) {
	case xpath.Empty: // case (1)
		out[a] = expath.Eps{}
	case xpath.Label: // case (2)
		if tr.g.hasEdge(a, p.Name) {
			out[p.Name] = expath.Label{Name: p.Name}
		}
	case xpath.Wildcard: // case (3)
		for _, b := range tr.g.children(a) {
			out[b] = expath.Label{Name: b}
		}
	case xpath.Seq: // case (4): p1/p2
		left := tr.translate(p.L, a)
		for _, c := range left.targets() {
			right := tr.translate(p.R, c)
			for b, re := range right {
				cat := expath.MkCat(left[c], re)
				if prev, ok := out[b]; ok {
					out[b] = expath.MkUnion(prev, cat)
				} else {
					out[b] = cat
				}
			}
		}
	case xpath.Desc: // case (5): //p1
		for _, c := range tr.g.reachOrSelf(a) {
			recE := tr.rec(a, c)
			if _, zero := recE.(expath.Zero); zero {
				continue
			}
			inner := tr.translate(p.P, c)
			for _, b := range inner.targets() {
				cat := expath.MkCat(recE, inner[b])
				if prev, ok := out[b]; ok {
					out[b] = expath.MkUnion(prev, cat)
				} else {
					out[b] = cat
				}
			}
		}
	case xpath.Union: // case (6)
		for b, e := range tr.translate(p.L, a) {
			out[b] = e
		}
		for b, e := range tr.translate(p.R, a) {
			if prev, ok := out[b]; ok {
				out[b] = expath.MkUnion(prev, e)
			} else {
				out[b] = e
			}
		}
	case xpath.Filter: // case (7): p1[q]
		inner := tr.translate(p.P, a)
		for _, b := range inner.targets() {
			out[b] = expath.MkQual(inner[b], tr.rewQual(p.Q, b))
		}
	}
	return out
}

// rewQual is procedure RewQual (Fig 9): it translates a qualifier for
// evaluation at an element of type at, statically deciding it from the DTD
// structure when possible (QTrue / QFalse).
func (tr *exTranslator) rewQual(q xpath.Qual, at string) expath.Qual {
	switch q := q.(type) {
	case xpath.QPath:
		exprs := tr.translate(q.P, at)
		if len(exprs) == 0 {
			// No node is reachable via p from an 'at' element: [p] is
			// statically false.
			return expath.QFalse{}
		}
		var u expath.Expr = expath.Zero{}
		nullable := false
		for _, b := range exprs.targets() {
			if tr.isNullable(exprs[b]) {
				nullable = true
			}
			u = expath.MkUnion(u, exprs[b])
		}
		if nullable {
			// ε ∈ p at this context: the context node itself witnesses
			// [p], so the qualifier is statically true.
			return expath.QTrue{}
		}
		return expath.QExpr{E: u}
	case xpath.QText:
		return expath.QText{C: q.C}
	case xpath.QNot:
		return expath.MkNot(tr.rewQual(q.Q, at))
	case xpath.QAnd:
		return expath.MkAnd(tr.rewQual(q.L, at), tr.rewQual(q.R, at))
	case xpath.QOr:
		return expath.MkOr(tr.rewQual(q.L, at), tr.rewQual(q.R, at))
	}
	return expath.QFalse{}
}

// isNullable reports whether the expression's language contains ε, chasing
// variables through both the query-local and rec equations.
func (tr *exTranslator) isNullable(e expath.Expr) bool {
	memo := map[string]int{} // 0 unknown/in-progress, 1 false, 2 true
	var nullable func(e expath.Expr) bool
	lookup := func(x string) expath.Expr { return tr.defs[x] }
	nullable = func(e expath.Expr) bool {
		switch e := e.(type) {
		case expath.Eps:
			return true
		case expath.Star:
			return true
		case expath.Cat:
			return nullable(e.L) && nullable(e.R)
		case expath.Union:
			return nullable(e.L) || nullable(e.R)
		case expath.Qualified:
			// Conservative: a qualifier may fail at the context node, so a
			// qualified ε is not statically true.
			return false
		case expath.DescSelf:
			// Semantically transparent: same language as the alternative.
			return nullable(e.Alt)
		case expath.Var:
			switch memo[e.Name] {
			case 1:
				return false
			case 2:
				return true
			}
			memo[e.Name] = 1 // assume false while in progress (lfp)
			b := lookup(e.Name)
			if b == nil {
				return false
			}
			if nullable(b) {
				memo[e.Name] = 2
				return true
			}
			return false
		}
		return false
	}
	return nullable(e)
}
