package core

import (
	"fmt"
	"sort"

	"xpath2sql/internal/dtd"
	"xpath2sql/internal/ra"
	"xpath2sql/internal/shred"
	"xpath2sql/internal/xpath"
)

// SQLGenR translates an XPath query using the approach of Krishnamurthy et
// al. [39] (§3.1): every descendant axis becomes a multi-relation SQL'99
// fixpoint (with…recursive) over the DTD edges reachable from the context —
// the star-shaped plan of Fig 2, with one join and one union per edge in
// every iteration and Rid provenance tags. Non-recursive steps become plain
// joins.
//
// As in the paper's experiments, queries beyond [39]'s original class
// (negation, disjunction in qualifiers) are accommodated by generating "a
// with…recursive query for each rec(A,B) in our translation framework":
// qualifiers use the same relational encoding as EXpToSQL while all
// recursion goes through the multi-relation fixpoint.
func SQLGenR(q xpath.Path, d *dtd.DTD) (*ra.Program, error) {
	return NewSchema(d).sqlGenR(q)
}

func (s *Schema) sqlGenR(q xpath.Path) (*ra.Program, error) {
	if s.err != nil {
		return nil, s.err
	}
	t := &rTranslator{temps: temps{prefix: "r"}, g: s.g}
	alts, err := flattenAlts(q)
	if err != nil {
		return nil, err
	}
	var plans []ra.Plan
	for _, alt := range alts {
		p, err := t.anchoredSpine(alt)
		if err != nil {
			return nil, err
		}
		plans = append(plans, p)
	}
	return &ra.Program{Stmts: append(t.stmts, ra.Stmt{Name: "result", Plan: union(plans...)}), Result: "result"}, nil
}

// anchoredSpine translates one spine. Faithful to [39], evaluation is
// relation-at-a-time: a leading label step scans the whole R_label relation
// and the root anchoring σ_{F='_'} is applied to the final result — the
// with…recursive operator is a black box that selections cannot be pushed
// into (§3.1), so recursion seeded mid-spine ranges over every matching
// element, not just those under the document root.
func (t *rTranslator) anchoredSpine(steps []rStep) (ra.Plan, error) {
	if len(steps) == 0 {
		return empty(), nil
	}
	first := steps[0]
	var ctx ra.Plan
	var curTypes []string
	rootFilter := false
	switch {
	case first.desc:
		// A leading // step recurses from the document root; the recursion
		// itself checks path validity against the DTD (required under the
		// view semantics of §3.4, where the data may follow edges outside
		// this DTD), so the seeded form is used as in Fig 2.
		plan, _, err := t.spine(steps, ra.RootSeed{}, []string{DocType})
		return plan, err
	case first.label == ".":
		ctx = ra.RootSeed{}
		curTypes = []string{DocType}
	case first.label == "*":
		ctx = ra.Base{Rel: shred.RelName(t.g.Root)}
		curTypes = []string{t.g.Root}
		rootFilter = true
	default:
		if !t.g.hasEdgeNamed(DocType, first.label) {
			return empty(), nil
		}
		ctx = ra.Base{Rel: shred.RelName(first.label)}
		curTypes = []string{first.label}
		rootFilter = true
	}
	for _, q := range first.quals {
		var err error
		ctx, err = t.applyQual(q, ctx, curTypes)
		if err != nil {
			return nil, err
		}
	}
	plan, _, err := t.spine(steps[1:], ctx, curTypes)
	if err != nil {
		return nil, err
	}
	if rootFilter {
		plan = ra.SelectRoot{Child: plan}
	}
	return plan, nil
}

// rStep is one spine step: an optional preceding descendant-or-self axis,
// a label ("*" wildcard, "." self) and its qualifiers.
type rStep struct {
	desc  bool
	label string
	quals []xpath.Qual
}

// flattenAlts normalizes a path into a union of linear spines, distributing
// '/' over '∪' (the paper's example queries are all of this shape; the
// general class is handled by the extended-XPath pipeline).
func flattenAlts(p xpath.Path) ([][]rStep, error) {
	switch p := p.(type) {
	case xpath.Empty:
		return [][]rStep{{{label: "."}}}, nil
	case xpath.Label:
		return [][]rStep{{{label: p.Name}}}, nil
	case xpath.Wildcard:
		return [][]rStep{{{label: "*"}}}, nil
	case xpath.Seq:
		ls, err := flattenAlts(p.L)
		if err != nil {
			return nil, err
		}
		rs, err := flattenAlts(p.R)
		if err != nil {
			return nil, err
		}
		var out [][]rStep
		for _, l := range ls {
			for _, r := range rs {
				spine := append(append([]rStep{}, l...), r...)
				out = append(out, spine)
			}
		}
		return out, nil
	case xpath.Desc:
		inner, err := flattenAlts(p.P)
		if err != nil {
			return nil, err
		}
		var out [][]rStep
		for _, alt := range inner {
			spine := append([]rStep{}, alt...)
			spine[0].desc = true
			out = append(out, spine)
		}
		return out, nil
	case xpath.Union:
		ls, err := flattenAlts(p.L)
		if err != nil {
			return nil, err
		}
		rs, err := flattenAlts(p.R)
		if err != nil {
			return nil, err
		}
		return append(ls, rs...), nil
	case xpath.Filter:
		inner, err := flattenAlts(p.P)
		if err != nil {
			return nil, err
		}
		var out [][]rStep
		for _, alt := range inner {
			spine := append([]rStep{}, alt...)
			last := spine[len(spine)-1]
			last.quals = append(append([]xpath.Qual{}, last.quals...), p.Q)
			spine[len(spine)-1] = last
			out = append(out, spine)
		}
		return out, nil
	}
	return nil, fmt.Errorf("core: SQLGen-R does not support %T: %w", p, ErrUnsupportedQuery)
}

type rTranslator struct {
	temps
	g *transGraph
}

// spine translates a step sequence starting from the context relation ctx
// whose T nodes have the given possible element types.
func (t *rTranslator) spine(steps []rStep, ctx ra.Plan, curTypes []string) (ra.Plan, []string, error) {
	for _, st := range steps {
		if len(curTypes) == 0 {
			return empty(), nil, nil
		}
		if st.desc {
			rec, recTypes := t.descOrSelf(ctx, curTypes)
			ctx, curTypes = rec, recTypes
		}
		switch st.label {
		case ".":
			// Stay at the current context.
		case "*":
			children := t.childTypes(curTypes)
			if len(children) == 0 {
				return empty(), nil, nil
			}
			var plans []ra.Plan
			for _, c := range children {
				plans = append(plans, t.childStep(ctx, curTypes, c))
			}
			ctx = union(plans...)
			curTypes = children
		default:
			step := t.childStep(ctx, curTypes, st.label)
			if isEmpty(step) {
				return empty(), nil, nil
			}
			ctx = step
			curTypes = []string{st.label}
		}
		for _, q := range st.quals {
			var err error
			ctx, err = t.applyQual(q, ctx, curTypes)
			if err != nil {
				return nil, nil, err
			}
		}
	}
	return ctx, curTypes, nil
}

// descOrSelf builds the multi-relation fixpoint computing all
// (context, descendant-or-self) pairs: the with…recursive of Fig 2, seeded
// with the identity over the context nodes and iterating one join + one
// union per DTD edge of the reachable component.
func (t *rTranslator) descOrSelf(ctx ra.Plan, curTypes []string) (ra.Plan, []string) {
	comp := map[string]bool{}
	for _, c := range curTypes {
		for _, r := range t.g.reachOrSelf(t.g.num[c]) {
			comp[t.g.nodes[r]] = true
		}
	}
	var compList []string
	for c := range comp {
		compList = append(compList, c)
	}
	sort.Strings(compList)

	// Seed with the context tuples themselves: (origin, context) pairs whose
	// origins survive through the iteration, so qualifier semijoins keep
	// their anchor. The self part of descendant-or-self is the seed itself.
	ctx = t.asTemp(ctx)
	var init []ra.Tagged
	for _, c := range curTypes {
		seed := ctx
		if len(curTypes) > 1 {
			if c == DocType {
				// The virtual root has no stored relation; select it by
				// its node ID via the one-tuple root seed.
				seed = ra.Semijoin{L: ctx, R: ra.RootSeed{}}
			} else {
				seed = ra.TypeFilter{Child: ctx, Rel: shred.RelName(c)}
			}
		}
		init = append(init, ra.Tagged{Tag: c, Plan: seed})
	}
	var edges []ra.RecEdge
	for _, from := range compList {
		for _, to := range compList {
			if t.g.hasEdgeNamed(from, to) {
				edges = append(edges, ra.RecEdge{
					FromTag: from,
					ToTag:   to,
					Rel:     ra.Base{Rel: shred.RelName(to)},
				})
			}
		}
	}
	rec := ra.RecUnion{Init: init, Edges: edges, Pairs: true}
	return t.asTemp(rec), compList
}

// applyQual filters ctx to tuples whose T node satisfies q, translating
// qualifier paths with the same SQLGen-R machinery seeded at the candidate
// nodes.
func (t *rTranslator) applyQual(q xpath.Qual, ctx ra.Plan, curTypes []string) (ra.Plan, error) {
	switch q := q.(type) {
	case xpath.QPath:
		w, err := t.witness(q.P, ctx, curTypes)
		if err != nil {
			return nil, err
		}
		if isEmpty(w) {
			return empty(), nil
		}
		return ra.Semijoin{L: ctx, R: t.asTemp(w)}, nil
	case xpath.QText:
		return ra.SelectVal{Child: ctx, Val: q.C}, nil
	case xpath.QNot:
		if inner, ok := q.Q.(xpath.QPath); ok {
			w, err := t.witness(inner.P, ctx, curTypes)
			if err != nil {
				return nil, err
			}
			if isEmpty(w) {
				return ctx, nil
			}
			return ra.Antijoin{L: ctx, R: t.asTemp(w)}, nil
		}
		c := t.asTemp(ctx)
		filtered, err := t.applyQual(q.Q, c, curTypes)
		if err != nil {
			return nil, err
		}
		return ra.Diff{L: c, R: filtered}, nil
	case xpath.QAnd:
		l, err := t.applyQual(q.L, ctx, curTypes)
		if err != nil {
			return nil, err
		}
		return t.applyQual(q.R, l, curTypes)
	case xpath.QOr:
		c := t.asTemp(ctx)
		l, err := t.applyQual(q.L, c, curTypes)
		if err != nil {
			return nil, err
		}
		r, err := t.applyQual(q.R, c, curTypes)
		if err != nil {
			return nil, err
		}
		return union(l, r), nil
	}
	return nil, fmt.Errorf("core: SQLGen-R does not support qualifier %T: %w", q, ErrUnsupportedQuery)
}

// witness translates a qualifier path evaluated at the candidate nodes of
// ctx: the returned relation pairs each candidate with the nodes its path
// reaches, so a semijoin on T = F implements the existence test.
func (t *rTranslator) witness(p xpath.Path, ctx ra.Plan, curTypes []string) (ra.Plan, error) {
	alts, err := flattenAlts(p)
	if err != nil {
		return nil, err
	}
	seed := ra.IdentOf{Child: t.asTemp(ctx)}
	seedT := t.asTemp(seed)
	var plans []ra.Plan
	for _, alt := range alts {
		w, _, err := t.spine(alt, seedT, curTypes)
		if err != nil {
			return nil, err
		}
		plans = append(plans, w)
	}
	return union(plans...), nil
}

// childStep joins the context with the child relation of label, restricted
// to context types that have a DTD edge to label. When the context mixes
// types (after a wildcard or a descendant step), each parent type is
// filtered separately so no edge outside the DTD — possible when executing
// over data of a containing DTD, the Exp-4 / §3.4 setting — leaks in.
func (t *rTranslator) childStep(ctx ra.Plan, curTypes []string, label string) ra.Plan {
	var parents []string
	for _, c := range curTypes {
		if t.g.hasEdgeNamed(c, label) {
			parents = append(parents, c)
		}
	}
	if len(parents) == 0 {
		return empty()
	}
	child := ra.Base{Rel: shred.RelName(label)}
	// Every context type is a valid parent: one plain join suffices.
	if len(parents) == len(curTypes) {
		return compose(ctx, child)
	}
	ctx = t.asTemp(ctx)
	var plans []ra.Plan
	for _, u := range parents {
		var filtered ra.Plan
		if u == DocType {
			filtered = ra.Semijoin{L: ctx, R: ra.RootSeed{}}
		} else {
			filtered = ra.TypeFilter{Child: ctx, Rel: shred.RelName(u)}
		}
		plans = append(plans, compose(filtered, child))
	}
	return union(plans...)
}

// childTypes returns the distinct child types of a set of types, sorted.
func (t *rTranslator) childTypes(types []string) []string {
	set := map[string]bool{}
	for _, c := range types {
		for _, ch := range t.g.kids[t.g.num[c]] {
			set[t.g.nodes[ch]] = true
		}
	}
	var out []string
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}
