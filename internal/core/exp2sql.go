package core

import (
	"fmt"
	"strconv"
	"sync"

	"xpath2sql/internal/expath"
	"xpath2sql/internal/ra"
	"xpath2sql/internal/shred"
)

// SQLOptions configures EXpToSQL.
type SQLOptions struct {
	// RelName maps an element type to its stored relation; defaults to
	// shred.RelName.
	RelName func(string) string
	// AtRoot appends the final σ_{F='_'} selection (Fig 10 line 26) so the
	// result holds only answers reachable from the document root. Set by
	// Translate; disable to obtain the full (context, target) relation.
	AtRoot bool
	// UseRid translates ε and the reflexive part of E* via the full R_id
	// identity relation (the naive scheme of §5.1). Off, the optimized
	// "Handling (E)*" scheme of §5.2 is used: ε parts are folded into
	// composition contexts and R_id is materialized only when unavoidable.
	UseRid bool
	// PushSelections enables the §5.2 optimization that pushes join
	// constraints into the LFP operator (see Optimize).
	PushSelections bool
}

// DefaultSQLOptions returns the options Translate uses: optimized ε
// handling, pushed selections, root-anchored result.
func DefaultSQLOptions() SQLOptions {
	return SQLOptions{AtRoot: true, PushSelections: true}
}

// EXpToSQL rewrites an extended-XPath query into an equivalent sequence of
// relational-algebra statements with the single-input LFP operator (Fig 10).
// Statement e2s(e) of every equation is emitted once and referenced through
// its temporary table, so shared sub-queries are computed once; the CycleE
// strategy produces variable-free queries and therefore no sharing, exactly
// the contrast measured in Table 5.
func EXpToSQL(q *expath.Query, opts SQLOptions) (*ra.Program, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	tr := sqlTranslators.Get().(*sqlTranslator)
	defer tr.release()
	tr.opts, tr.prefix = opts, "tmp"
	for _, eq := range q.Eqs {
		p := tr.e2s(eq.E)
		// Bind the equation to a temporary table; keep its nullability so
		// later references can fold the ε part into their own context.
		name := "T_" + eq.X
		tr.stmts = append(tr.stmts, ra.Stmt{Name: name, Plan: p.pos})
		tr.varInfo[eq.X] = tPlan{pos: ra.Temp{Name: name}, nullable: p.nullable}
	}
	res := tr.e2s(q.Result)
	final := res.pos
	if opts.AtRoot {
		final = ra.SelectRoot{Child: final}
	}
	prog := &ra.Program{Stmts: append(tr.stmts, ra.Stmt{Name: "result", Plan: final}), Result: "result"}
	if opts.PushSelections {
		Optimize(prog)
	}
	return prog, nil
}

// tPlan is a translated expression: the plan of its non-ε paths plus a flag
// recording whether ε is in its language. Keeping ε symbolic implements the
// "Handling (E)*" optimization: a composition context absorbs the ε part as
// its own relation instead of joining with R_id.
type tPlan struct {
	pos      ra.Plan
	nullable bool
}

type sqlTranslator struct {
	temps
	opts    SQLOptions
	varInfo map[string]tPlan
	// Kept under the default naming (shred.RelName): relations, step plans.
	rels   map[string]string
	leaves map[[2]string]ra.Plan
}

// sqlTranslators recycles translators, and with them rels and leaves: a plan
// is never written into, so any number of programs may share one.
var sqlTranslators = sync.Pool{New: func() any {
	return &sqlTranslator{varInfo: map[string]tPlan{}, rels: map[string]string{}, leaves: map[[2]string]ra.Plan{}}
}}

func (tr *sqlTranslator) release() {
	clear(tr.varInfo)
	if len(tr.leaves)+len(tr.rels) > 1<<12 {
		clear(tr.rels)
		clear(tr.leaves)
	}
	*tr = sqlTranslator{varInfo: tr.varInfo, rels: tr.rels, leaves: tr.leaves}
	sqlTranslators.Put(tr)
}

// rel is the stored relation of a type under the configured naming.
func (tr *sqlTranslator) rel(typ string) string {
	if tr.opts.RelName != nil {
		return tr.opts.RelName(typ)
	}
	r, ok := tr.rels[typ]
	if !ok {
		r = shred.RelName(typ)
		tr.rels[typ] = r
	}
	return r
}

// leaf is the plan of a child step to type to, typed by its source when from
// is not "": under the default naming one node per (from, to), however often
// and in however many programs it recurs.
func (tr *sqlTranslator) leaf(from, to string) ra.Plan {
	k, keep := [2]string{from, to}, tr.opts.RelName == nil
	if p, ok := tr.leaves[k]; ok && keep {
		return p
	}
	var p ra.Plan = ra.Base{Rel: tr.rel(to)}
	if from != "" {
		p = ra.TypeFilter{Child: p, Rel: tr.rel(from), OnF: true}
	}
	if keep {
		tr.leaves[k] = p
	}
	return p
}

// once is asTemp for an operand referenced only where it stands: a Φ seed, a
// DescScan's alternative, a qualifier's witness. Under PushSelections,
// InlineSingleUse would substitute its temp straight back, so none is made.
func (tr *sqlTranslator) once(p ra.Plan) ra.Plan { return tr.add(p, !tr.opts.PushSelections) }

// temps makes the temporary statements of a translation or a pass, named
// prefix1, prefix2, … in the order they are made.
type temps struct {
	prefix string
	n      int
	stmts  []ra.Stmt
}

// asTemp materializes a plan as a temporary statement when it is about to be
// referenced more than once, so the engine computes it a single time.
func (t *temps) asTemp(p ra.Plan) ra.Plan { return t.add(p, true) }

// add is asTemp, making the statement only when emit is set: the name is
// spent either way, so the temps that stay keep theirs.
func (t *temps) add(p ra.Plan, emit bool) ra.Plan {
	switch p.(type) {
	case ra.Temp, ra.Base, ra.Ident, ra.RootSeed:
		return p
	}
	if t.n++; !emit {
		return p
	}
	name := t.prefix + strconv.Itoa(t.n)
	t.stmts = append(t.stmts, ra.Stmt{Name: name, Plan: p})
	return ra.Temp{Name: name}
}

func empty() ra.Plan { return ra.UnionAll{} }

func isEmpty(p ra.Plan) bool {
	u, ok := p.(ra.UnionAll)
	return ok && len(u.Kids) == 0
}

// union is the union of ps, nested unions flattened, built in one slice of
// the size it ends at.
func union(ps ...ra.Plan) ra.Plan {
	n, last := 0, empty()
	for _, p := range ps {
		if u, ok := p.(ra.UnionAll); !ok {
			n, last = n+1, p
		} else if len(u.Kids) > 0 {
			n, last = n+len(u.Kids), p
		}
	}
	if n <= 1 {
		return last // no union built here has one operand, so last is not one
	}
	kids := make([]ra.Plan, 0, n)
	for _, p := range ps {
		if u, ok := p.(ra.UnionAll); ok {
			kids = append(kids, u.Kids...)
		} else {
			kids = append(kids, p)
		}
	}
	return ra.UnionAll{Kids: kids}
}

func compose(l, r ra.Plan) ra.Plan {
	if isEmpty(l) || isEmpty(r) {
		return empty()
	}
	return ra.Compose{L: l, R: r}
}

// e2s translates an expression (Fig 10, cases 1–12).
func (tr *sqlTranslator) e2s(e expath.Expr) tPlan {
	switch e := e.(type) {
	case expath.Zero:
		return tPlan{pos: empty()}
	case expath.Eps: // case (1)
		if tr.opts.UseRid {
			return tPlan{pos: ra.Ident{}}
		}
		return tPlan{pos: empty(), nullable: true}
	case expath.Label: // case (2)
		return tPlan{pos: tr.leaf("", e.Name)}
	case expath.Edge:
		// Source-typed step: To-children of From-typed nodes, the typed
		// edge join of Example 3.5 (e.g. Rs/Rc) as an F-side semijoin.
		return tPlan{pos: tr.leaf(e.From, e.To)}
	case expath.Var: // case (3)
		info, ok := tr.varInfo[e.Name]
		if !ok {
			panic(fmt.Sprintf("core: unbound variable %s", e.Name))
		}
		return info
	case expath.Cat: // case (4)
		l := tr.e2s(e.L)
		r := tr.e2s(e.R)
		if isEmpty(l.pos) && !l.nullable {
			return tPlan{pos: empty()}
		}
		if isEmpty(r.pos) && !r.nullable {
			return tPlan{pos: empty()}
		}
		// L/R = L⁺/R⁺ ∪ (ε∈L ? R⁺) ∪ (ε∈R ? L⁺), ε ∈ L/R iff both.
		lp, rp := l.pos, r.pos
		if l.nullable && !isEmpty(rp) {
			rp = tr.asTemp(rp)
		}
		if r.nullable && !isEmpty(lp) {
			lp = tr.asTemp(lp)
		}
		out := compose(lp, rp)
		if l.nullable {
			out = union(out, rp)
		}
		if r.nullable {
			out = union(out, lp)
		}
		return tPlan{pos: out, nullable: l.nullable && r.nullable}
	case expath.Union: // case (5)
		l := tr.e2s(e.L)
		r := tr.e2s(e.R)
		return tPlan{pos: union(l.pos, r.pos), nullable: l.nullable || r.nullable}
	case expath.Star: // case (6): Φ(R) plus the symbolic (or R_id) ε part.
		inner := tr.e2s(e.E)
		seed := inner.pos
		if isEmpty(seed) {
			// ∅* = ε.
			if tr.opts.UseRid {
				return tPlan{pos: ra.Ident{}}
			}
			return tPlan{pos: empty(), nullable: true}
		}
		// Closures over child-step unions relate nodes to proper
		// descendants; mark the fixpoint so interval-aware engines can
		// prune expansion by containment.
		fix := ra.Fix{Seed: tr.once(seed), Desc: true}
		if tr.opts.UseRid {
			return tPlan{pos: union(fix, ra.Ident{})}
		}
		return tPlan{pos: fix, nullable: true}
	case expath.DescSelf:
		// Interval-annotated descendant closure: the plan of the non-ε
		// paths becomes the DescScan's fallback alternative, and engines
		// with a matching document-order encoding replace it with a
		// containment scan from From-typed to To-typed nodes. Under the
		// naive UseRid scheme the ε part is materialized inside the plan
		// (not kept symbolic), so the scan — which computes exactly the
		// proper descendants — would not match; the annotation is dropped.
		inner := tr.e2s(e.Alt)
		if tr.opts.UseRid || isEmpty(inner.pos) {
			return inner
		}
		return tPlan{
			pos: ra.DescScan{
				From: tr.rel(e.From),
				To:   tr.rel(e.To),
				Alt:  tr.once(inner.pos),
			},
			nullable: inner.nullable,
		}
	case expath.Qualified: // cases (7)–(12)
		inner := tr.e2s(e.E)
		pos := tr.applyQual(e.Q, inner.pos)
		if inner.nullable {
			// The ε part survives only at context nodes satisfying the
			// qualifier; materialize it over R_id (rare: requires a
			// qualified nullable sub-expression such as '.[q]').
			pos = union(pos, tr.applyQual(e.Q, ra.Ident{}))
		}
		return tPlan{pos: pos}
	}
	panic(fmt.Sprintf("core: unknown expression %T", e))
}

// applyQual filters the candidate relation cand to tuples whose T node
// satisfies q. Path qualifiers become semijoins against the qualifier
// expression's relation (case 6/7 of Fig 10), negation an antijoin
// (case 11), text()=c a selection (case 12); ∧ composes filters and ∨
// unions them, mirroring Example 5.1's decomposition of Q2.
func (tr *sqlTranslator) applyQual(q expath.Qual, cand ra.Plan) ra.Plan {
	switch q := q.(type) {
	case expath.QTrue:
		return cand
	case expath.QFalse:
		return empty()
	case expath.QExpr:
		w := tr.e2s(q.E)
		if w.nullable {
			// ε ∈ E: every node trivially reaches itself, so [E] holds
			// everywhere.
			return cand
		}
		if isEmpty(w.pos) {
			return empty()
		}
		return ra.Semijoin{L: cand, R: tr.once(w.pos)}
	case expath.QText:
		return ra.SelectVal{Child: cand, Val: q.C}
	case expath.QNot:
		// Special-case ¬[E] as an antijoin; general ¬q as cand \ q(cand).
		if inner, ok := q.Q.(expath.QExpr); ok {
			w := tr.e2s(inner.E)
			if w.nullable {
				return empty()
			}
			if isEmpty(w.pos) {
				return cand
			}
			return ra.Antijoin{L: cand, R: tr.once(w.pos)}
		}
		c := tr.asTemp(cand)
		return ra.Diff{L: c, R: tr.applyQual(q.Q, c)}
	case expath.QAnd:
		return tr.applyQual(q.R, tr.applyQual(q.L, cand))
	case expath.QOr:
		c := tr.asTemp(cand)
		return union(tr.applyQual(q.L, c), tr.applyQual(q.R, c))
	}
	panic(fmt.Sprintf("core: unknown qualifier %T", q))
}
