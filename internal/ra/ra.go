// Package ra defines the relational-algebra intermediate representation the
// translation targets (Fan et al. §5). Every plan produces a relation with
// schema (F, T, V): F and T are node IDs ("from"/"to", i.e. parentId/ID in
// the shredded store) and V is the text value of the T node. A program is a
// sequence of named statements R_e ← plan, mirroring the paper's output
// "list Q' of the form Re ← e2s(e)".
//
// The package is engine-agnostic: internal/rdb executes programs in memory,
// and sql.go renders them as SQL text with the single-input LFP operator
// expressed via WITH RECURSIVE (DB2) or CONNECT BY (Oracle).
package ra

import (
	"fmt"
	"slices"
	"strings"
)

// Plan is a relational-algebra operator tree producing an (F, T, V) relation.
type Plan interface {
	String() string
	isPlan()
}

// Base scans a stored relation R_A of the shredded database.
type Base struct{ Rel string }

// Temp references the result of an earlier statement.
type Temp struct{ Name string }

// Ident is the identity relation R_id: one tuple (v, v, v.val) per stored
// node (§5.1). It encodes ε; the optimized translation avoids it in favor of
// IdentOf wherever a composition context is available (§5.2 "Handling (E)*").
type Ident struct{}

// IdentOf is the scoped identity π_{T,T}(child) (or π_{F,F} when OnF): one
// (x, x) tuple per distinct endpoint of the child relation.
type IdentOf struct {
	Child Plan
	OnF   bool // use the F column instead of T
}

// Compose is the path join π_{L.F, R.T, R.V}(L ⋈_{L.T = R.F} R): e1/e2.
type Compose struct{ L, R Plan }

// UnionAll is the n-ary set union of its children.
type UnionAll struct{ Kids []Plan }

// Fix is the simple least-fixpoint operator Φ(R) (§3.3, Eq. 2): the
// transitive closure (one or more steps) of Seed under the composition join.
// Start and End, when non-nil, are the pushed selection constraints of §5.2:
// the iteration only explores paths whose first node is in π_T(Start)
// (resp. whose last node is in π_F(End)).
type Fix struct {
	Seed  Plan
	Start Plan
	End   Plan
	// Desc marks a fixpoint that computes (part of) a descendant closure:
	// every produced (F, T) pair relates a node to one of its proper
	// descendants. It is an execution hint — engines with a document-order
	// interval encoding may prune expansion candidates by containment — and
	// does not change the operator's semantics (or its printed form).
	Desc bool
}

// DescScan is the interval-containment descendant scan: the physical
// alternative to a descendant-closure fixpoint. It denotes the typed
// proper-descendant relation {(x, y, y.V) : x ∈ T(R_From), y ∈ T(R_To), y a
// proper descendant of x} — exactly the non-ε part of the recursive closure
// rec(From, To) over a document conforming to the DTD the program was
// translated against. Engines with a document-order interval encoding
// stamped with the same DTD fingerprint answer it with a begin-sorted range
// scan; everyone else (the SQL rendering, the naive oracle, an engine
// without intervals) evaluates Alt, the equivalent fixpoint plan.
//
// Start and End carry the same pushed selection constraints as Fix: sources
// restricted to π_T(Start), targets to π_F(End).
type DescScan struct {
	From, To string
	Alt      Plan
	Start    Plan
	End      Plan
}

// SelectVal is σ_{V=c}(child).
type SelectVal struct {
	Child Plan
	Val   string
}

// SelectRoot is σ_{F='_'}(child): tuples whose F is the virtual document
// root, the final statement of EXpToSQL (Fig 10, line 26).
type SelectRoot struct{ Child Plan }

// Semijoin keeps L tuples with a witness in R: L ⋉_{L.T = R.F} R. It encodes
// a path qualifier [q] applied at the target node (Fig 10, case 6).
type Semijoin struct{ L, R Plan }

// Antijoin keeps L tuples with no witness in R: the translation of [¬q]
// (Fig 10, case 11; Example 5.1 computes it as L \ (L ⋉ R)).
type Antijoin struct{ L, R Plan }

// Diff is set difference on (F, T).
type Diff struct{ L, R Plan }

// RootSeed is the one-tuple relation {('_', '_', "")}: the virtual document
// root as a context. Composing it with R_r anchors a query at the root.
type RootSeed struct{}

// TypeFilter keeps child tuples whose T node (F node when OnF) belongs to
// the stored relation Rel (i.e. is of that element type). With OnF it
// implements the source-typed edge step ⟨u→v⟩ of Example 3.5's typed joins:
// TypeFilter{Child: R_v, Rel: R_u, OnF: true} keeps v-edges out of u nodes.
type TypeFilter struct {
	Child Plan
	Rel   string
	OnF   bool
}

// RecUnion is the SQL'99 multi-relation fixpoint φ(R, R1 … Rk) used by the
// SQLGen-R baseline (§3.1, Eq. 1 and Fig 2): Init seeds the result; each
// iteration joins the growing result — restricted to tuples tagged FromTag —
// with every edge relation and unions the results in, tagging new tuples
// with ToTag. Rid provenance tags keep parent/child joins honest.
//
// Two tuple semantics are provided. With Pairs false, the operator
// accumulates reachable *edges* exactly as in Fig 2 / Table 2 (each new
// tuple is the joined edge's own (F, T)). With Pairs true it accumulates
// (origin, current) pairs — the product-automaton form, composable with the
// rest of a plan. Both flavors perform one join and one union per edge
// relation per iteration, the cost model of §3.1. ResultTag, when non-empty,
// filters the output to tuples carrying that tag (the final "Rid = 'p'"
// selection).
type RecUnion struct {
	Init      []Tagged
	Edges     []RecEdge
	Pairs     bool
	ResultTag string
}

// Tagged seeds RecUnion with a plan whose tuples carry the given tag.
type Tagged struct {
	Tag  string
	Plan Plan
}

// RecEdge is one select statement inside the with…recursive body.
type RecEdge struct {
	FromTag string // join against result tuples tagged FromTag
	ToTag   string // tag for produced tuples
	Rel     Plan   // the edge relation R_j
}

func (Base) isPlan()       {}
func (Temp) isPlan()       {}
func (Ident) isPlan()      {}
func (IdentOf) isPlan()    {}
func (Compose) isPlan()    {}
func (UnionAll) isPlan()   {}
func (Fix) isPlan()        {}
func (SelectVal) isPlan()  {}
func (SelectRoot) isPlan() {}
func (Semijoin) isPlan()   {}
func (Antijoin) isPlan()   {}
func (Diff) isPlan()       {}
func (RootSeed) isPlan()   {}
func (TypeFilter) isPlan() {}
func (RecUnion) isPlan()   {}
func (DescScan) isPlan()   {}

func (b Base) String() string { return b.Rel }
func (t Temp) String() string { return t.Name }
func (Ident) String() string  { return "Rid" }

func (i IdentOf) String() string {
	col := "T"
	if i.OnF {
		col = "F"
	}
	return fmt.Sprintf("ident_%s(%s)", col, i.Child)
}

func (c Compose) String() string { return fmt.Sprintf("(%s ⋈ %s)", c.L, c.R) }

func (u UnionAll) String() string {
	parts := make([]string, len(u.Kids))
	for i, k := range u.Kids {
		parts[i] = k.String()
	}
	return "(" + strings.Join(parts, " ∪ ") + ")"
}

func (f Fix) String() string {
	s := fmt.Sprintf("Φ(%s", f.Seed)
	if f.Start != nil {
		s += fmt.Sprintf("; start∈T(%s)", f.Start)
	}
	if f.End != nil {
		s += fmt.Sprintf("; end∈F(%s)", f.End)
	}
	return s + ")"
}

func (s SelectVal) String() string  { return fmt.Sprintf("σ[V=%q](%s)", s.Val, s.Child) }
func (s SelectRoot) String() string { return fmt.Sprintf("σ[F='_'](%s)", s.Child) }
func (s Semijoin) String() string   { return fmt.Sprintf("(%s ⋉ %s)", s.L, s.R) }
func (a Antijoin) String() string   { return fmt.Sprintf("(%s ▷ %s)", a.L, a.R) }
func (d Diff) String() string       { return fmt.Sprintf("(%s \\ %s)", d.L, d.R) }

func (RootSeed) String() string { return "Rroot" }

func (t TypeFilter) String() string {
	col := "T"
	if t.OnF {
		col = "F"
	}
	return fmt.Sprintf("typefilter[%s.%s](%s)", t.Rel, col, t.Child)
}

func (d DescScan) String() string {
	s := fmt.Sprintf("desc(%s→%s", d.From, d.To)
	if d.Start != nil {
		s += fmt.Sprintf("; start∈T(%s)", d.Start)
	}
	if d.End != nil {
		s += fmt.Sprintf("; end∈F(%s)", d.End)
	}
	return s + fmt.Sprintf(")[%s]", d.Alt)
}

func (r RecUnion) String() string {
	var b strings.Builder
	b.WriteString("recunion(init:")
	for i, t := range r.Init {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, " %s:%s", t.Tag, t.Plan)
	}
	b.WriteString("; edges:")
	for i, e := range r.Edges {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, " %s→%s:%s", e.FromTag, e.ToTag, e.Rel)
	}
	b.WriteString(")")
	return b.String()
}

// Stmt is one statement R_name ← plan of a program.
type Stmt struct {
	Name string
	Plan Plan
}

// Program is an ordered statement sequence; Result names the statement whose
// relation is the query answer (its T column holds the answer node IDs).
type Program struct {
	Stmts  []Stmt
	Result string
	// DTDFP is the fingerprint of the DTD the program was translated
	// against ("" when unknown). Engines compare it with the stored
	// database's fingerprint before taking the DescScan interval fast path:
	// a program translated against a sub-DTD under-approximates the
	// descendant relation, so containment is only sound when they agree. It
	// is metadata, not part of the printed plan.
	DTDFP string
	// Query is the canonical text of the query the program translates
	// (core.CanonicalQuery; "" for a program built by hand). An executor that holds no relations of its own — a router's
	// client to a remote shard — ships it in place of the plan. Metadata, like
	// DTDFP.
	Query string
	// Keys is the stamp StampKeys leaves: every statement's keys, derived from
	// the plan (nil when not stamped). Metadata, like DTDFP.
	Keys map[string]Keys
}

func (p *Program) String() string {
	var b strings.Builder
	for _, s := range p.Stmts {
		fmt.Fprintf(&b, "%s ← %s\n", s.Name, s.Plan)
	}
	fmt.Fprintf(&b, "result: %s\n", p.Result)
	return b.String()
}

// Lookup returns the plan bound to a statement name, or nil.
func (p *Program) Lookup(name string) Plan {
	for i := range p.Stmts {
		if p.Stmts[i].Name == name {
			return p.Stmts[i].Plan
		}
	}
	return nil
}

// OpCounts summarizes operator usage in a program: the RA-side numbers of
// Table 5 and the per-case counts quoted in §6.4.
type OpCounts struct {
	LFP      int // Fix operators (single-input Φ)
	RecFix   int // multi-relation RecUnion operators (SQLGen-R)
	Joins    int // Compose + Semijoin + Antijoin + RecUnion edge joins
	Unions   int // two-way unions (an n-ary union counts n-1)
	Diffs    int
	Sels     int
	DescScan int // interval-containment descendant scans
}

// All returns the total operator count (the ALL column of Table 5).
func (c OpCounts) All() int {
	return c.LFP + c.RecFix + c.Joins + c.Unions + c.Diffs + c.Sels + c.DescScan
}

// Inputs returns an operator's operand plans in the one canonical order
// every consumer agrees on: declaration order, with the optional constraints
// of Fix (Seed, Start?, End?) and DescScan (Alt, Start?, End?) present only
// when non-nil, and RecUnion listing its Init plans before its edge
// relations. Leaves (Base, Temp, Ident, RootSeed) have none. This is the only
// place that lists an operator's children: structural walks (dependency
// graphs, operator counts, the engine's operand resolution) all go through it.
func Inputs(pl Plan) []Plan { return AppendInputs(nil, pl) }

// AppendInputs is Inputs appending to dst, for callers that walk plans on a
// hot path with a stack buffer.
func AppendInputs(dst []Plan, pl Plan) []Plan {
	switch pl := pl.(type) {
	case IdentOf:
		return append(dst, pl.Child)
	case SelectVal:
		return append(dst, pl.Child)
	case SelectRoot:
		return append(dst, pl.Child)
	case TypeFilter:
		return append(dst, pl.Child)
	case Compose:
		return append(dst, pl.L, pl.R)
	case Semijoin:
		return append(dst, pl.L, pl.R)
	case Antijoin:
		return append(dst, pl.L, pl.R)
	case Diff:
		return append(dst, pl.L, pl.R)
	case UnionAll:
		return append(dst, pl.Kids...)
	case Fix:
		return appendConstrained(dst, pl.Seed, pl.Start, pl.End)
	case DescScan:
		return appendConstrained(dst, pl.Alt, pl.Start, pl.End)
	case RecUnion:
		for _, t := range pl.Init {
			dst = append(dst, t.Plan)
		}
		for _, e := range pl.Edges {
			dst = append(dst, e.Rel)
		}
	}
	return dst
}

// Operands is Inputs for reading: a union's own Kids, not a copy of its
// (possibly many) operands, and any other operator's appended to buf.
func Operands(buf []Plan, pl Plan) []Plan {
	if u, ok := pl.(UnionAll); ok {
		return u.Kids
	}
	return AppendInputs(buf, pl)
}

// appendConstrained appends a Fix/DescScan operand list: the main operand,
// then the pushed constraints that are present.
func appendConstrained(dst []Plan, first, start, end Plan) []Plan {
	dst = append(dst, first)
	if start != nil {
		dst = append(dst, start)
	}
	if end != nil {
		dst = append(dst, end)
	}
	return dst
}

// WithInputs is the inverse of Inputs: pl with its operands replaced by kids,
// which must hold as many plans as Inputs(pl) — an optional constraint of a
// Fix or DescScan is replaced, never added or dropped. Every other attribute
// is kept, the ones outside the printed form (Fix.Desc, RecUnion.Pairs and
// ResultTag) included; a leaf is returned as it is. kids is not retained.
func WithInputs(pl Plan, kids []Plan) Plan {
	switch pl := pl.(type) {
	case Compose:
		return Compose{L: kids[0], R: kids[1]}
	case UnionAll:
		return UnionAll{Kids: append([]Plan(nil), kids...)}
	case Fix:
		start, end := constraints(kids, pl.Start, pl.End)
		return Fix{Seed: kids[0], Start: start, End: end, Desc: pl.Desc}
	case DescScan:
		start, end := constraints(kids, pl.Start, pl.End)
		return DescScan{From: pl.From, To: pl.To, Alt: kids[0], Start: start, End: end}
	case SelectVal:
		return SelectVal{Child: kids[0], Val: pl.Val}
	case SelectRoot:
		return SelectRoot{Child: kids[0]}
	case Semijoin:
		return Semijoin{L: kids[0], R: kids[1]}
	case Antijoin:
		return Antijoin{L: kids[0], R: kids[1]}
	case Diff:
		return Diff{L: kids[0], R: kids[1]}
	case IdentOf:
		return IdentOf{Child: kids[0], OnF: pl.OnF}
	case TypeFilter:
		return TypeFilter{Child: kids[0], Rel: pl.Rel, OnF: pl.OnF}
	case RecUnion:
		pl.Init, pl.Edges = slices.Clone(pl.Init), slices.Clone(pl.Edges)
		for i := range pl.Init {
			pl.Init[i].Plan = kids[i]
		}
		for i := range pl.Edges {
			pl.Edges[i].Rel = kids[len(pl.Init)+i]
		}
		return pl
	default:
		return pl
	}
}

// constraints reads back what appendConstrained wrote: the replacements in
// kids of the constraints that are present.
func constraints(kids []Plan, start, end Plan) (Plan, Plan) {
	i := 1
	if start != nil {
		start = kids[i]
		i++
	}
	if end != nil {
		end = kids[i]
	}
	return start, end
}

// Count tallies the operators of every statement in the program.
func (p *Program) Count() OpCounts {
	var c OpCounts
	var walk func(pl Plan)
	walk = func(pl Plan) {
		switch pl := pl.(type) {
		case Compose, Semijoin, Antijoin, TypeFilter:
			c.Joins++
		case UnionAll:
			if len(pl.Kids) > 1 {
				c.Unions += len(pl.Kids) - 1
			}
		case Fix:
			c.LFP++
		case SelectVal, SelectRoot:
			c.Sels++
		case Diff:
			c.Diffs++
		case DescScan:
			c.DescScan++
		case RecUnion:
			c.RecFix++
			c.Joins += len(pl.Edges)
			c.Unions += len(pl.Edges)
		}
		for _, k := range Inputs(pl) {
			walk(k)
		}
	}
	for _, s := range p.Stmts {
		walk(s.Plan)
	}
	return c
}
