package core

import (
	"fmt"
	"slices"
	"sync"

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
	// New statements go last: the executor and the renderer order by need.
	o := &optimizer{temps{prefix: "opt"}}
	stmts := make([]ra.Stmt, len(p.Stmts))
	for i, s := range p.Stmts {
		pl, _ := sinkRoot(s.Plan)
		pl, _ = o.opt(pl)
		stmts[i] = ra.Stmt{Name: s.Name, Plan: pl}
	}
	p.Stmts = append(stmts, o.stmts...)
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
func ExtractCommon(p *ra.Program) {
	c := cses.Get().(*cse)
	if c.extract(p); len(c.nodes) > 1<<16 {
		return // a huge program's scratch is left to the collector
	}
	c.in.Reset()
	clear(c.name)
	clear(c.stmts)
	clear(c.extra)
	*c = cse{in: c.in, nodes: c.nodes[:0], kids: c.kids[:0], uses: c.uses[:0], name: c.name[:0], stmts: c.stmts[:0], extra: c.extra[:0]}
	cses.Put(c)
}

// cses recycles ExtractCommon's scratch — its node list, the counts and names
// per plan number, the interner — emptied when put back, up to 64k nodes.
var cses = sync.Pool{New: func() any { return &cse{in: ra.NewInterner()} }}

// cse is the state of one ExtractCommon run.
type cse struct {
	in    *ra.Interner
	nodes []cseNode // every node of every statement, in pre-order
	kids  []int     // stack of operand numbers under construction
	// uses counts, per plan number, the shareable nodes that carry it; name
	// is the statement defining it once it is shared ("" before).
	uses         []int
	name         []string
	pos          int       // the rewrite's cursor into nodes
	n            int       // cse statements named so far
	stmts, extra []ra.Stmt // the program's statements rewritten, the cse ones
}

type cseNode struct {
	id    int  // the node's plan number
	end   int  // index in nodes just past the node's subtree
	share bool // worth materializing as a temp
}

func (c *cse) extract(p *ra.Program) {
	starts := make([]int, len(p.Stmts))
	for i, s := range p.Stmts {
		starts[i] = len(c.nodes)
		c.number(s.Plan)
	}
	n := c.in.Len()
	c.uses, c.name = slices.Grow(c.uses, n)[:n], slices.Grow(c.name, n)[:n]
	clear(c.uses)
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
	for _, s := range p.Stmts {
		pl, _ := c.rewriteInputs(s.Plan)
		c.stmts = append(c.stmts, ra.Stmt{Name: s.Name, Plan: pl})
	}
	p.Stmts = slices.Concat(c.stmts, c.extra) // p's slice is replaced, not written into
}

// number records pl's subtree in c.nodes and returns pl's plan number.
func (c *cse) number(pl ra.Plan) int {
	pos, base := len(c.nodes), len(c.kids)
	c.nodes = append(c.nodes, cseNode{share: shareable(pl)})
	var buf [4]ra.Plan
	for _, k := range ra.Operands(buf[:0], pl) {
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
func (c *cse) rewrite(pl ra.Plan) (ra.Plan, bool) {
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
		def, _ := c.rewriteInputs(pl)
		c.extra = append(c.extra, ra.Stmt{Name: name, Plan: def})
	} else {
		c.pos = n.end
	}
	return ra.Temp{Name: c.name[n.id]}, true
}

// rewriteInputs steps the cursor past pl and rewrites its operands.
func (c *cse) rewriteInputs(pl ra.Plan) (ra.Plan, bool) {
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
func sinkRoot(p ra.Plan) (ra.Plan, bool) {
	switch q := p.(type) {
	case ra.SelectRoot:
		if r := sinkRootInto(q.Child); r != nil {
			return r, true
		}
		return p, false
	case ra.Fix:
		return mapInput(p, 0, sinkRoot)
	case ra.DescScan, ra.RecUnion:
		return p, false
	}
	return mapInputs(p, sinkRoot)
}

// sinkRootInto rewrites a plan to its σ_{F='_'} restriction, descending the
// operators whose F column is inherited from their left/only child: σ(L ∘ R)
// = σ(L) ∘ R, and σ(L \ R) = σ(L) \ R since a root tuple of L is in R iff it
// is in σ(R). It returns nil when the selection stays on top of p and p is
// unchanged, so the caller can keep the σ(p) node it holds.
func sinkRootInto(p ra.Plan) ra.Plan {
	switch q := p.(type) {
	case ra.SelectRoot:
		return rootOf(q.Child)
	case ra.UnionAll:
		r, _ := mapInputs(p, func(k ra.Plan) (ra.Plan, bool) { return rootOf(k), true })
		return r
	case ra.Compose, ra.SelectVal, ra.Semijoin, ra.Antijoin, ra.Diff, ra.TypeFilter:
		var in, out [4]ra.Plan
		kids := ra.AppendInputs(in[:0], p)
		out[0] = rootOf(kids[0])
		for i := 1; i < len(kids); i++ {
			out[i], _ = sinkRoot(kids[i])
		}
		return ra.WithInputs(p, out[:len(kids)])
	case ra.Fix:
		if q.Start == nil {
			// σ_{F='_'}(Φ(R)) = paths starting at the virtual root.
			q.Seed, _ = sinkRoot(q.Seed)
			q.Start = ra.RootSeed{}
			return q
		}
	}
	if c, ok := sinkRoot(p); ok {
		return ra.SelectRoot{Child: c}
	}
	return nil
}

// rootOf is sinkRootInto(p), or σ_{F='_'}(p) where that is nil.
func rootOf(p ra.Plan) ra.Plan {
	if r := sinkRootInto(p); r != nil {
		return r
	}
	return ra.SelectRoot{Child: p}
}

// InlineSingleUse substitutes the plan of every statement referenced exactly
// once into its single use site. The result statement is never inlined. One
// pass suffices: inlining moves a plan, with the references inside it, to its
// one use, so no reference count changes and no new single use appears.
func InlineSingleUse(p *ra.Program) {
	refs := make(map[string]int, len(p.Stmts))
	var count func(pl ra.Plan)
	count = func(pl ra.Plan) {
		if t, ok := pl.(ra.Temp); ok {
			refs[t.Name]++
		}
		var buf [4]ra.Plan
		for _, k := range ra.Operands(buf[:0], pl) {
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
	var subst func(pl ra.Plan) (ra.Plan, bool)
	subst = func(pl ra.Plan) (ra.Plan, bool) {
		if t, ok := pl.(ra.Temp); ok {
			if def, ok := inline[t.Name]; ok {
				def, _ = subst(def)
				return def, true
			}
		}
		return mapInputs(pl, subst)
	}
	kept := make([]ra.Stmt, 0, len(p.Stmts)-len(inline))
	for _, s := range p.Stmts {
		if _, gone := inline[s.Name]; !gone {
			pl, _ := subst(s.Plan)
			kept = append(kept, ra.Stmt{Name: s.Name, Plan: pl})
		}
	}
	p.Stmts = kept
}

// mapInputs returns pl with f applied to each of its operands, and whether f
// changed any; like f, it returns pl itself when nothing changed. Every pass
// rewrites so, copy-on-change (DESIGN.md): it writes into no node or Kids
// slice it did not allocate, and allocates only along the paths it alters.
func mapInputs(pl ra.Plan, f func(ra.Plan) (ra.Plan, bool)) (ra.Plan, bool) {
	var in, out [4]ra.Plan
	kids := ra.Operands(in[:0], pl)
	var res []ra.Plan // nil until an operand changes
	for i, k := range kids {
		nk, changed := f(k)
		if changed && res == nil {
			res = append(out[:0], kids[:i]...)
		}
		if res != nil {
			res = append(res, nk)
		}
	}
	if res == nil {
		return pl, false
	}
	return ra.WithInputs(pl, res), true
}

// mapInput is mapInputs applying f to pl's i-th operand alone.
func mapInput(pl ra.Plan, i int, f func(ra.Plan) (ra.Plan, bool)) (ra.Plan, bool) {
	var in [4]ra.Plan
	kids := ra.AppendInputs(in[:0], pl)
	k, ok := f(kids[i])
	if !ok {
		return pl, false
	}
	kids[i] = k
	return ra.WithInputs(pl, kids), true
}

type optimizer struct{ temps }

func (o *optimizer) opt(p ra.Plan) (ra.Plan, bool) {
	switch q := p.(type) {
	case ra.Compose:
		// Left-deep normalization: the path join is associative, and
		// L ⋈ (A ⋈ B) ⇒ (L ⋈ A) ⋈ B lets the pushed start constraint of a
		// fixpoint in B be the anchored prefix L ⋈ A instead of bare A.
		changed := false
		for inner, ok := q.R.(ra.Compose); ok; inner, ok = q.R.(ra.Compose) {
			q, changed = ra.Compose{L: ra.Compose{L: q.L, R: inner.L}, R: inner.R}, true
		}
		// Distribute the join over a union that hides an unconstrained
		// fixpoint (rule (i) of §5.2): L ⋈ (A ∪ B) ⇒ (L ⋈ A) ∪ (L ⋈ B), so
		// each branch's fixpoint can be seeded by the full prefix L.
		if u, ok := q.R.(ra.UnionAll); ok && containsOpenFix(q.R) {
			l, _ := o.opt(q.L)
			l = o.asTemp(l)
			kids := make([]ra.Plan, len(u.Kids))
			for i, k := range u.Kids {
				kids[i], _ = o.opt(ra.Compose{L: l, R: k})
			}
			return ra.UnionAll{Kids: kids}, true
		}
		l, lc := o.opt(q.L)
		r, rc := o.opt(q.R)
		// R1 ⋈ Φ: constrain the fixpoint's start nodes to π_T(R1).
		if hasOpen(r, false) {
			l = o.asTemp(l)
			r, _ = push(r, l, false)
			changed = true
		}
		// Φ ⋈ R1: constrain the fixpoint's end nodes to π_F(R1).
		if hasOpen(l, true) {
			r = o.asTemp(r)
			l, _ = push(l, r, true)
			changed = true
		}
		if !changed && !lc && !rc {
			return p, false
		}
		return ra.Compose{L: l, R: r}, true
	case ra.Semijoin, ra.Antijoin:
		var in [4]ra.Plan
		kids := ra.AppendInputs(in[:0], p)
		l, lc := o.opt(kids[0])
		r, rc := o.opt(kids[1])
		if hasOpen(r, false) {
			l = o.asTemp(l)
			r, _ = push(r, l, false)
			lc = true
		}
		if !lc && !rc {
			return p, false
		}
		in[0], in[1] = l, r
		return ra.WithInputs(p, in[:2]), true
	case ra.Fix, ra.DescScan:
		return mapInput(p, 0, o.opt)
	case ra.UnionAll, ra.SelectVal, ra.SelectRoot, ra.IdentOf, ra.Diff:
		// Never push into Diff.R: shrinking the subtrahend is unsound.
		return mapInputs(p, o.opt)
	default:
		// with…recursive is a black box (§3.1): nothing is pushed inside a
		// RecUnion, which is precisely the limitation the paper contrasts
		// against.
		return p, false
	}
}

// containsOpenFix reports whether any fixpoint without a start constraint
// occurs anywhere in the plan (other than inside a black-box RecUnion or a
// fixpoint seed, where pushing cannot reach). It triggers the
// join-over-union distribution; soundness of the actual push is still
// governed by hasOpen.
func containsOpenFix(p ra.Plan) bool {
	switch p := p.(type) {
	case ra.Fix:
		return p.Start == nil
	case ra.DescScan:
		return p.Start == nil
	case ra.RecUnion:
		return false
	default:
		var in [4]ra.Plan
		return slices.ContainsFunc(ra.Operands(in[:0], p), containsOpenFix)
	}
}

// hasOpen reports whether the plan contains, at a position that determines
// its F column (end false) or its T column (end true), a fixpoint without
// that constraint.
func hasOpen(p ra.Plan, end bool) bool {
	switch q := p.(type) {
	case ra.Fix:
		return *side(&q.Start, &q.End, end) == nil
	case ra.DescScan:
		return *side(&q.Start, &q.End, end) == nil
	case ra.UnionAll:
		return slices.ContainsFunc(q.Kids, func(k ra.Plan) bool { return hasOpen(k, end) })
	}
	var in [4]ra.Plan
	i := column(p, end)
	return i >= 0 && hasOpen(ra.AppendInputs(in[:0], p)[i], end)
}

// column is the operand whose F column (T column when end) p passes on as its
// own, -1 for none: a composition's left (right) side, a filter's filtered.
func column(p ra.Plan, end bool) int {
	switch p.(type) {
	case ra.Compose, ra.SelectVal, ra.Semijoin, ra.Antijoin:
		if _, ok := p.(ra.Compose); ok && end {
			return 1
		}
		return 0
	}
	return -1
}

// side is the start or, when isEnd, the end constraint of a fixpoint.
func side(start, end *ra.Plan, isEnd bool) *ra.Plan {
	if isEnd {
		return end
	}
	return start
}

// push adds the start constraint F ∈ π_T(c) (end false) or the end
// constraint T ∈ π_F(c) (end true) to every reachable open fixpoint that
// determines the plan's F or T column, and reports whether it found one:
// only the operators on the way to one are rebuilt. A DescScan takes the
// constraint itself, and its fallback alternative inherits it too, so a
// non-interval engine also benefits.
func push(p ra.Plan, c ra.Plan, end bool) (ra.Plan, bool) {
	pushed := func(k ra.Plan) (ra.Plan, bool) { return push(k, c, end) }
	switch q := p.(type) {
	case ra.Fix:
		if s := side(&q.Start, &q.End, end); *s == nil {
			*s = c
			return q, true
		}
	case ra.DescScan:
		if s := side(&q.Start, &q.End, end); *s == nil {
			*s = c
			q.Alt, _ = push(q.Alt, c, end)
			return q, true
		}
	case ra.UnionAll:
		return mapInputs(p, pushed)
	default:
		if i := column(p, end); i >= 0 {
			return mapInput(p, i, pushed)
		}
	}
	return p, false
}
