package core

import (
	"fmt"

	"xpath2sql/internal/ra"
)

// Optimize applies the §5.2 optimization "pushing selections into the lfp
// operator" to a program in place. For every composition R1 ⋈ Φ(R0) the
// fixpoint gains the start constraint R.F ∈ π_T(R1), and for Φ(R0) ⋈ R1 the
// end constraint R.T ∈ π_F(R1); the decomposition rules (i)–(iii) of the
// paper (union, conjunction, nesting) are realized by pushing through
// unions, filters and nested compositions. Semijoins and antijoins —
// qualifier applications — push like compositions.
//
// The engine's Φ then iterates only over paths anchored at the constrained
// frontier, exactly the connect-by/with-recursion join condition of §5.2.
func Optimize(p *ra.Program) {
	pushSelections(p)
	ExtractCommon(p)
}

// pushSelections is Optimize up to, not including, the extraction of common
// sub-queries.
func pushSelections(p *ra.Program) {
	// Temporary-table boundaries block constraint pushing, so statements
	// referenced exactly once are first inlined into their use site (shared
	// temps — the common sub-queries variables exist for — are kept).
	InlineSingleUse(p)
	o := &optimizer{prog: p}
	for i := range p.Stmts {
		p.Stmts[i].Plan = sinkRoot(p.Stmts[i].Plan)
		p.Stmts[i].Plan = o.opt(p.Stmts[i].Plan)
	}
	p.Stmts = append(p.Stmts, o.extra...)
}

// ExtractCommon factors structurally identical non-trivial subplans that
// occur more than once into shared temporary statements, so the engine (or
// RDBMS) computes each once — the "extracting common sub-queries"
// optimization of EXpToSQL (Fig 10, lines 27–28). It runs after constraint
// pushing so differently-constrained fixpoints keep distinct definitions.
//
// Plans are compared by interned number (ra.Interner), not by printed form,
// in two linear walks: the first numbers every node in pre-order, the second
// rewrites in the same order, so cse1 … cseN and the statement order are
// those a comparison of printed plans gives.
func ExtractCommon(p *ra.Program) { extractCommon(p, ra.NewInterner()) }

// cse is the state of one ExtractCommon run.
type cse struct {
	in    *ra.Interner
	nodes []cseNode // every node of every statement, in pre-order
	kids  []int     // stack of operand numbers under construction
	// uses counts, per plan number, the shareable nodes that carry it; name
	// is the statement defining it once it is shared ("" before).
	uses  []int
	name  []string
	pos   int // the rewrite's cursor into nodes
	n     int // cse statements named so far
	extra []ra.Stmt
}

type cseNode struct {
	id    int  // the node's plan number
	end   int  // index in nodes just past the node's subtree
	share bool // worth materializing as a temp
}

func extractCommon(p *ra.Program, in *ra.Interner) {
	c := &cse{in: in}
	starts := make([]int, len(p.Stmts))
	for i, s := range p.Stmts {
		starts[i] = len(c.nodes)
		c.number(s.Plan)
	}
	c.uses, c.name = make([]int, in.Len()), make([]string, in.Len())
	for _, n := range c.nodes {
		if n.share {
			c.uses[n.id]++
		}
	}
	// Reuse existing statements as the shared definition of their plan.
	for i, s := range p.Stmts {
		if n := c.nodes[starts[i]]; n.share && c.name[n.id] == "" {
			c.name[n.id] = s.Name
			c.uses[n.id] += 2 // force dedup against the stmt
		}
	}
	for i := range p.Stmts {
		p.Stmts[i].Plan = c.rewriteInputs(p.Stmts[i].Plan)
	}
	p.Stmts = append(p.Stmts, c.extra...)
}

// number records pl's subtree in c.nodes and returns pl's plan number.
func (c *cse) number(pl ra.Plan) int {
	pos, base := len(c.nodes), len(c.kids)
	c.nodes = append(c.nodes, cseNode{share: shareable(pl)})
	var buf [4]ra.Plan
	for _, k := range ra.AppendInputs(buf[:0], pl) {
		id := c.number(k)
		c.kids = append(c.kids, id)
	}
	id := c.in.Node(pl, c.kids[base:])
	c.kids = c.kids[:base]
	c.nodes[pos].id, c.nodes[pos].end = id, len(c.nodes)
	return id
}

// rewrite replaces the node under the cursor by a reference to its shared
// statement when it occurs more than once, defining the statement at the
// first occurrence.
func (c *cse) rewrite(pl ra.Plan) ra.Plan {
	n := c.nodes[c.pos]
	if !n.share || c.uses[n.id] < 2 {
		return c.rewriteInputs(pl)
	}
	if c.name[n.id] == "" {
		c.n++
		name := fmt.Sprintf("cse%d", c.n)
		c.name[n.id] = name
		// The definition is computed before extra is read: rewriting it
		// appends the statements of the common sub-plans inside it.
		def := c.rewriteInputs(pl)
		c.extra = append(c.extra, ra.Stmt{Name: name, Plan: def})
	} else {
		c.pos = n.end
	}
	return ra.Temp{Name: c.name[n.id]}
}

// rewriteInputs steps the cursor past pl and rewrites its operands.
func (c *cse) rewriteInputs(pl ra.Plan) ra.Plan {
	c.pos++
	return mapInputs(pl, c.rewrite)
}

// shareable reports whether a plan is worth materializing as a temp.
func shareable(pl ra.Plan) bool {
	switch pl.(type) {
	case ra.Compose, ra.UnionAll, ra.Fix, ra.Semijoin, ra.Antijoin, ra.Diff,
		ra.TypeFilter, ra.IdentOf, ra.RecUnion, ra.DescScan:
		return true
	}
	return false
}

// sinkRoot pushes the final σ_{F='_'} selection (Fig 10 line 26) down the
// F-column provenance of the plan, so a query anchored at the document root
// never materializes results for non-root contexts. On recursive root types
// (the cross-cycle DTD's 'a') this turns an all-contexts closure into a
// single-source one.
func sinkRoot(p ra.Plan) ra.Plan {
	switch p := p.(type) {
	case ra.SelectRoot:
		return sinkRootInto(p.Child)
	case ra.Compose:
		return ra.Compose{L: sinkRoot(p.L), R: sinkRoot(p.R)}
	case ra.UnionAll:
		kids := make([]ra.Plan, len(p.Kids))
		for i, k := range p.Kids {
			kids[i] = sinkRoot(k)
		}
		return ra.UnionAll{Kids: kids}
	case ra.SelectVal:
		return ra.SelectVal{Child: sinkRoot(p.Child), Val: p.Val}
	case ra.Semijoin:
		return ra.Semijoin{L: sinkRoot(p.L), R: sinkRoot(p.R)}
	case ra.Antijoin:
		return ra.Antijoin{L: sinkRoot(p.L), R: sinkRoot(p.R)}
	case ra.Diff:
		return ra.Diff{L: sinkRoot(p.L), R: sinkRoot(p.R)}
	case ra.Fix:
		return ra.Fix{Seed: sinkRoot(p.Seed), Start: p.Start, End: p.End,
			TrackPaths: p.TrackPaths, Desc: p.Desc}
	case ra.IdentOf:
		return ra.IdentOf{Child: sinkRoot(p.Child), OnF: p.OnF}
	case ra.TypeFilter:
		return ra.TypeFilter{Child: sinkRoot(p.Child), Rel: p.Rel, OnF: p.OnF}
	default:
		return p
	}
}

// sinkRootInto rewrites a plan to its σ_{F='_'} restriction, descending the
// operators whose F column is inherited from their left/only child.
func sinkRootInto(p ra.Plan) ra.Plan {
	switch p := p.(type) {
	case ra.Compose:
		return ra.Compose{L: sinkRootInto(p.L), R: sinkRoot(p.R)}
	case ra.UnionAll:
		kids := make([]ra.Plan, len(p.Kids))
		for i, k := range p.Kids {
			kids[i] = sinkRootInto(k)
		}
		return ra.UnionAll{Kids: kids}
	case ra.SelectVal:
		return ra.SelectVal{Child: sinkRootInto(p.Child), Val: p.Val}
	case ra.SelectRoot:
		return sinkRootInto(p.Child)
	case ra.Semijoin:
		return ra.Semijoin{L: sinkRootInto(p.L), R: sinkRoot(p.R)}
	case ra.Antijoin:
		return ra.Antijoin{L: sinkRootInto(p.L), R: sinkRoot(p.R)}
	case ra.Diff:
		// σ(L \ R) = σ(L) \ R: a root tuple of L is in R iff it is in σ(R).
		return ra.Diff{L: sinkRootInto(p.L), R: sinkRoot(p.R)}
	case ra.TypeFilter:
		return ra.TypeFilter{Child: sinkRootInto(p.Child), Rel: p.Rel, OnF: p.OnF}
	case ra.Fix:
		if p.Start == nil {
			// σ_{F='_'}(Φ(R)) = paths starting at the virtual root.
			return ra.Fix{Seed: sinkRoot(p.Seed), Start: ra.RootSeed{}, End: p.End,
				TrackPaths: p.TrackPaths, Desc: p.Desc}
		}
		return ra.SelectRoot{Child: sinkRoot(p)}
	default:
		return ra.SelectRoot{Child: sinkRoot(p)}
	}
}

// InlineSingleUse substitutes the plan of every statement referenced exactly
// once into its single use site, iterating to a fixpoint. The result
// statement is never inlined.
func InlineSingleUse(p *ra.Program) {
	for {
		refs := map[string]int{}
		var count func(pl ra.Plan)
		count = func(pl ra.Plan) {
			if t, ok := pl.(ra.Temp); ok {
				refs[t.Name]++
			}
			var buf [4]ra.Plan
			for _, k := range ra.AppendInputs(buf[:0], pl) {
				count(k)
			}
		}
		for _, s := range p.Stmts {
			count(s.Plan)
		}
		inline := map[string]ra.Plan{}
		for _, s := range p.Stmts {
			if s.Name != p.Result && refs[s.Name] == 1 {
				inline[s.Name] = s.Plan
			}
		}
		if len(inline) == 0 {
			return
		}
		var subst func(pl ra.Plan) ra.Plan
		subst = func(pl ra.Plan) ra.Plan {
			if t, ok := pl.(ra.Temp); ok {
				if def, ok := inline[t.Name]; ok {
					return subst(def)
				}
			}
			return mapInputs(pl, subst)
		}
		var kept []ra.Stmt
		for _, s := range p.Stmts {
			if _, gone := inline[s.Name]; gone {
				continue
			}
			kept = append(kept, ra.Stmt{Name: s.Name, Plan: subst(s.Plan)})
		}
		p.Stmts = kept
	}
}

// mapInputs returns pl with f applied to each of its operands (pl itself
// when it has none).
func mapInputs(pl ra.Plan, f func(ra.Plan) ra.Plan) ra.Plan {
	var in, out [4]ra.Plan
	kids := out[:0]
	for _, k := range ra.AppendInputs(in[:0], pl) {
		kids = append(kids, f(k))
	}
	if len(kids) == 0 {
		return pl
	}
	return ra.WithInputs(pl, kids)
}

type optimizer struct {
	prog    *ra.Program
	extra   []ra.Stmt
	counter int
}

// asTemp makes a plan cheaply referenceable from two places. New statements
// are appended to the program; the executor resolves temp references lazily
// so definition order does not matter (the SQL renderer topo-sorts).
func (o *optimizer) asTemp(p ra.Plan) ra.Plan {
	switch p.(type) {
	case ra.Temp, ra.Base, ra.Ident:
		return p
	}
	o.counter++
	name := fmt.Sprintf("opt%d", o.counter)
	o.extra = append(o.extra, ra.Stmt{Name: name, Plan: p})
	return ra.Temp{Name: name}
}

func (o *optimizer) opt(p ra.Plan) ra.Plan {
	switch p := p.(type) {
	case ra.Compose:
		// Left-deep normalization: the path join is associative, and
		// L ⋈ (A ⋈ B) ⇒ (L ⋈ A) ⋈ B lets the pushed start constraint of a
		// fixpoint in B be the anchored prefix L ⋈ A instead of bare A.
		for {
			inner, ok := p.R.(ra.Compose)
			if !ok {
				break
			}
			p = ra.Compose{L: ra.Compose{L: p.L, R: inner.L}, R: inner.R}
		}
		// Distribute the join over a union that hides an unconstrained
		// fixpoint (rule (i) of §5.2): L ⋈ (A ∪ B) ⇒ (L ⋈ A) ∪ (L ⋈ B), so
		// each branch's fixpoint can be seeded by the full prefix L.
		if u, ok := p.R.(ra.UnionAll); ok && containsOpenFix(p.R) {
			l := o.asTemp(o.opt(p.L))
			kids := make([]ra.Plan, len(u.Kids))
			for i, k := range u.Kids {
				kids[i] = o.opt(ra.Compose{L: l, R: k})
			}
			return ra.UnionAll{Kids: kids}
		}
		l := o.opt(p.L)
		r := o.opt(p.R)
		// R1 ⋈ Φ: constrain the fixpoint's start nodes to π_T(R1).
		if hasOpenStart(r) {
			l = o.asTemp(l)
			r = pushStart(r, l)
		}
		// Φ ⋈ R1: constrain the fixpoint's end nodes to π_F(R1).
		if hasOpenEnd(l) {
			r = o.asTemp(r)
			l = pushEnd(l, r)
		}
		return ra.Compose{L: l, R: r}
	case ra.Semijoin:
		l := o.opt(p.L)
		r := o.opt(p.R)
		if hasOpenStart(r) {
			l = o.asTemp(l)
			r = pushStart(r, l)
		}
		return ra.Semijoin{L: l, R: r}
	case ra.Antijoin:
		l := o.opt(p.L)
		r := o.opt(p.R)
		if hasOpenStart(r) {
			l = o.asTemp(l)
			r = pushStart(r, l)
		}
		return ra.Antijoin{L: l, R: r}
	case ra.UnionAll:
		kids := make([]ra.Plan, len(p.Kids))
		for i, k := range p.Kids {
			kids[i] = o.opt(k)
		}
		return ra.UnionAll{Kids: kids}
	case ra.Fix:
		return ra.Fix{Seed: o.opt(p.Seed), Start: p.Start, End: p.End,
			TrackPaths: p.TrackPaths, Desc: p.Desc}
	case ra.DescScan:
		return ra.DescScan{From: p.From, To: p.To, Alt: o.opt(p.Alt),
			Start: p.Start, End: p.End}
	case ra.SelectVal:
		return ra.SelectVal{Child: o.opt(p.Child), Val: p.Val}
	case ra.SelectRoot:
		return ra.SelectRoot{Child: o.opt(p.Child)}
	case ra.Diff:
		// Never push into Diff.R: shrinking the subtrahend is unsound.
		return ra.Diff{L: o.opt(p.L), R: o.opt(p.R)}
	case ra.IdentOf:
		return ra.IdentOf{Child: o.opt(p.Child), OnF: p.OnF}
	case ra.RecUnion:
		// with…recursive is a black box (§3.1): nothing is pushed inside,
		// which is precisely the limitation the paper contrasts against.
		return p
	default:
		return p
	}
}

// containsOpenFix reports whether any fixpoint without a start constraint
// occurs anywhere in the plan (other than inside a black-box RecUnion or a
// fixpoint seed, where pushing cannot reach). It triggers the
// join-over-union distribution; soundness of the actual push is still
// governed by hasOpenStart.
func containsOpenFix(p ra.Plan) bool {
	switch p := p.(type) {
	case ra.Fix:
		return p.Start == nil
	case ra.DescScan:
		return p.Start == nil
	case ra.RecUnion:
		return false
	default:
		for _, k := range ra.Inputs(p) {
			if containsOpenFix(k) {
				return true
			}
		}
		return false
	}
}

// hasOpenStart reports whether the plan contains, at a position that
// determines its F column, a fixpoint without a start constraint.
func hasOpenStart(p ra.Plan) bool {
	switch p := p.(type) {
	case ra.Fix:
		return p.Start == nil
	case ra.DescScan:
		return p.Start == nil
	case ra.Compose:
		return hasOpenStart(p.L)
	case ra.UnionAll:
		for _, k := range p.Kids {
			if hasOpenStart(k) {
				return true
			}
		}
		return false
	case ra.SelectVal:
		return hasOpenStart(p.Child)
	case ra.Semijoin:
		return hasOpenStart(p.L)
	case ra.Antijoin:
		return hasOpenStart(p.L)
	default:
		return false
	}
}

// pushStart adds the start constraint (F ∈ π_T(start)) to every reachable
// open fixpoint that determines the plan's F column.
func pushStart(p ra.Plan, start ra.Plan) ra.Plan {
	switch p := p.(type) {
	case ra.Fix:
		if p.Start == nil {
			return ra.Fix{Seed: p.Seed, Start: start, End: p.End,
				TrackPaths: p.TrackPaths, Desc: p.Desc}
		}
		return p
	case ra.DescScan:
		if p.Start == nil {
			// The scan takes the constraint itself; the fallback alternative
			// inherits it too, so a non-interval engine also benefits.
			return ra.DescScan{From: p.From, To: p.To,
				Alt: pushStart(p.Alt, start), Start: start, End: p.End}
		}
		return p
	case ra.Compose:
		return ra.Compose{L: pushStart(p.L, start), R: p.R}
	case ra.UnionAll:
		kids := make([]ra.Plan, len(p.Kids))
		for i, k := range p.Kids {
			kids[i] = pushStart(k, start)
		}
		return ra.UnionAll{Kids: kids}
	case ra.SelectVal:
		return ra.SelectVal{Child: pushStart(p.Child, start), Val: p.Val}
	case ra.Semijoin:
		return ra.Semijoin{L: pushStart(p.L, start), R: p.R}
	case ra.Antijoin:
		return ra.Antijoin{L: pushStart(p.L, start), R: p.R}
	default:
		return p
	}
}

// hasOpenEnd reports whether the plan contains, at a position that
// determines its T column, a fixpoint without an end constraint.
func hasOpenEnd(p ra.Plan) bool {
	switch p := p.(type) {
	case ra.Fix:
		return p.End == nil
	case ra.DescScan:
		return p.End == nil
	case ra.Compose:
		return hasOpenEnd(p.R)
	case ra.UnionAll:
		for _, k := range p.Kids {
			if hasOpenEnd(k) {
				return true
			}
		}
		return false
	case ra.SelectVal:
		return hasOpenEnd(p.Child)
	case ra.Semijoin:
		return hasOpenEnd(p.L)
	case ra.Antijoin:
		return hasOpenEnd(p.L)
	default:
		return false
	}
}

// pushEnd adds the end constraint (T ∈ π_F(end)) to every reachable open
// fixpoint that determines the plan's T column.
func pushEnd(p ra.Plan, end ra.Plan) ra.Plan {
	switch p := p.(type) {
	case ra.Fix:
		if p.End == nil {
			return ra.Fix{Seed: p.Seed, Start: p.Start, End: end,
				TrackPaths: p.TrackPaths, Desc: p.Desc}
		}
		return p
	case ra.DescScan:
		if p.End == nil {
			return ra.DescScan{From: p.From, To: p.To,
				Alt: pushEnd(p.Alt, end), Start: p.Start, End: end}
		}
		return p
	case ra.Compose:
		return ra.Compose{L: p.L, R: pushEnd(p.R, end)}
	case ra.UnionAll:
		kids := make([]ra.Plan, len(p.Kids))
		for i, k := range p.Kids {
			kids[i] = pushEnd(k, end)
		}
		return ra.UnionAll{Kids: kids}
	case ra.SelectVal:
		return ra.SelectVal{Child: pushEnd(p.Child, end), Val: p.Val}
	case ra.Semijoin:
		return ra.Semijoin{L: pushEnd(p.L, end), R: p.R}
	case ra.Antijoin:
		return ra.Antijoin{L: pushEnd(p.L, end), R: p.R}
	default:
		return p
	}
}
