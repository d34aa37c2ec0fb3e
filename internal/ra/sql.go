package ra

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Dialect selects the SQL rendering of the LFP operator (Fig 4 of the
// paper): the recursive-CTE form supported by IBM DB2 (and SQL'99 engines),
// or Oracle's CONNECT BY.
type Dialect int

const (
	// DialectDB2 renders Φ(R) with WITH RECURSIVE (DB2 / SQL'99 engines).
	DialectDB2 Dialect = iota
	// DialectOracle renders Φ(R) with CONNECT BY.
	DialectOracle
)

// SQLRenderOptions configures rendering.
type SQLRenderOptions struct {
	Dialect Dialect
	// NodesTable names the catalog table holding (ID, VAL) for every
	// shredded node, used to materialize the R_id identity relation.
	NodesTable string
	// TempPrefix is prepended to every generated temporary-table name
	// (statements and lifted fixpoints alike). Backends that share one
	// database across concurrent executions use it to keep each run's
	// temporaries disjoint. Stored base relations are never prefixed.
	TempPrefix string
	// MaxRecIters > 0 caps iterations per recursive construct in the
	// rendered SQL, pushing the engine's MaxLFPIters limit into the
	// database: Oracle renderings guard CONNECT BY with AND LEVEL <= n,
	// DB2 renderings emit a SET MAX_RECURSIVE_ITERATIONS session statement
	// (RenderedSQL.Session) for the executing backend to install. 0 leaves
	// recursion unbounded.
	MaxRecIters int
}

// SQL renders the program as a sequence of SQL statements: one CREATE
// TEMPORARY TABLE per program statement, in dependency order, with fixpoint
// operators lifted into their own statements so every statement carries at
// most one recursive construct (the "sequence of SQL queries" form of §5).
//
// SQL is the lenient text form: an unknown dialect renders as DB2 and plans
// with no SQL form render an explanatory comment. Backends that execute the
// output use RenderSQL, which validates and returns typed errors instead.
func (p *Program) SQL(opts SQLRenderOptions) string {
	rs, _ := p.renderSQL(opts)
	return rs.script
}

// SQLStmt is one rendered statement: the temporary table it creates and the
// full CREATE TEMPORARY TABLE … AS … text (no trailing semicolon), ready to
// be executed verbatim by a database/sql backend.
type SQLStmt struct {
	Table string
	SQL   string
}

// RenderedSQL is the structured form of a rendered program: the statements
// in dependency order and the final answer query. Executing every statement
// in order and then ResultQuery yields the answer node IDs in column T.
type RenderedSQL struct {
	// Session holds statements the backend must execute on its pinned
	// connection before the program's statements — session configuration
	// like the recursion-depth guard, not part of the program itself.
	Session []string
	// SessionReset undoes Session: the backend must execute these when the
	// run finishes so a pooled connection does not carry this run's session
	// configuration into later runs.
	SessionReset []string
	Stmts        []SQLStmt
	ResultTable  string
	ResultQuery  string
	script       string // the text Stmts and ResultQuery are spans of
}

// Script returns the program as one text, the form Program.SQL returns:
// every statement followed by ";\n\n", then the result query and ";\n".
func (rs *RenderedSQL) Script() string { return rs.script }

// RenderSQL renders the program for execution: the same statement sequence
// as SQL, but validated — an unknown dialect returns ErrDialect, a plan with
// no SQL form returns ErrUnsupportedPlan — and split into per-statement
// strings a backend can execute one at a time.
func (p *Program) RenderSQL(opts SQLRenderOptions) (*RenderedSQL, error) {
	if !opts.Dialect.Valid() {
		return nil, fmt.Errorf("%w: Dialect(%d)", ErrDialect, int(opts.Dialect))
	}
	return p.renderSQL(opts)
}

func (p *Program) renderSQL(opts SQLRenderOptions) (*RenderedSQL, error) {
	if opts.NodesTable == "" {
		opts.NodesTable = "all_nodes"
	}
	r := renderers.Get().(*sqlRenderer)
	defer r.release()
	r.opts, r.prog = opts, p
	// Pre-assign sanitized names for all statements.
	for i, s := range p.Stmts {
		r.names[s.Name], r.byName[s.Name] = r.fresh(s.Name), i
	}
	rs := &RenderedSQL{}
	if opts.MaxRecIters > 0 && opts.Dialect == DialectDB2 {
		// DB2 bounds WITH RECURSIVE depth per session; Oracle renderings
		// carry the equivalent guard inline (AND LEVEL <= n in renderFix).
		rs.Session = append(rs.Session,
			fmt.Sprintf("SET MAX_RECURSIVE_ITERATIONS = %d", opts.MaxRecIters))
		rs.SessionReset = append(rs.SessionReset,
			"SET MAX_RECURSIVE_ITERATIONS = 0")
	}
	// Topologically ordered: the optimizer may append shared temps after
	// their uses.
	r.stmts = make([]SQLStmt, 0, len(p.Stmts))
	r.state = slices.Grow(r.state, len(p.Stmts))[:len(p.Stmts)]
	for _, s := range p.Stmts {
		r.place(r.byName[s.Name])
	}
	rs.ResultTable = r.names[p.Result]
	res := len(r.buf)
	r.w("SELECT DISTINCT T FROM ", rs.ResultTable)
	end := len(r.buf)
	r.w(";\n")
	// The statements are spans of the one text the renderer wrote.
	rs.script, rs.Stmts = string(r.buf), r.stmts
	for i, at := range r.at {
		rs.Stmts[i].SQL = rs.script[at[0]:at[1]]
	}
	rs.ResultQuery = rs.script[res:end]
	return rs, r.err
}

// renderers recycles renderers — maps, interner, buffer — so rendering
// allocates the text it returns and little else: a script is written into the
// buffer and copied out once. One whose buffer passed 1 MiB is dropped.
var renderers = sync.Pool{New: func() any {
	return &sqlRenderer{names: map[string]string{}, lifted: map[int]string{}, in: NewInterner(),
		seq: map[string]int{}, byName: map[string]int{}}
}}

func (r *sqlRenderer) release() {
	if cap(r.buf) > 1<<20 {
		return
	}
	clear(r.names)
	clear(r.lifted)
	clear(r.seq)
	clear(r.byName)
	clear(r.state)
	clear(r.refs[:cap(r.refs)])
	r.in.Reset()
	*r = sqlRenderer{names: r.names, lifted: r.lifted, in: r.in, seq: r.seq,
		buf: r.buf[:0], at: r.at[:0], byName: r.byName, state: r.state[:0], refs: r.refs[:0]}
	renderers.Put(r)
}

// place writes statement i, unless it is written, after its dependencies not
// yet placed, those in name order, so every Temp reference points backwards.
// Only these few are sorted, in place on one stack of names.
func (r *sqlRenderer) place(i int) {
	if r.state[i] != 0 {
		return
	}
	r.state[i] = 1
	s := r.prog.Stmts[i]
	base := len(r.refs)
	r.refs = appendTempRefs(r.refs, s.Plan)
	deps := r.refs[base:base]
	for _, name := range r.refs[base:] {
		if j, ok := r.byName[name]; ok && r.state[j] == 0 {
			deps = append(deps, name)
		}
	}
	slices.Sort(deps)
	for _, name := range deps {
		r.place(r.byName[name])
	}
	r.refs = r.refs[:base]
	r.state[i] = 2
	r.lift(s.Plan)
	r.statement(r.names[s.Name], func() { r.render(s.Plan, 0) })
}

// appendTempRefs appends the temp-table names a plan references, in plan
// order, repeats included.
func appendTempRefs(dst []string, p Plan) []string {
	if t, ok := p.(Temp); ok {
		return append(dst, t.Name)
	}
	var buf [4]Plan
	for _, k := range Operands(buf[:0], p) {
		dst = appendTempRefs(dst, k)
	}
	return dst
}

// sqlRenderer writes a program's statements. Every statement is written once,
// front to back, into one buffer: render takes the depth its text sits at and
// pads each line as it starts it, so no operator re-indents what an operand
// wrote.
type sqlRenderer struct {
	opts  SQLRenderOptions
	prog  *Program
	names map[string]string // statement name -> its table
	// lifted maps a Fix or RecUnion, by its number in in, to the table of the
	// statement it was lifted into: one per distinct plan, however often and
	// wherever in the program it occurs.
	lifted map[int]string
	in     *Interner
	// seq holds every table name taken, with the next numeric suffix to try
	// when the name is a colliding base (0 before the first collision).
	seq    map[string]int
	aliasN int
	err    error
	buf    []byte // the whole script, the statement being written last
	stmts  []SQLStmt
	at     [][2]int // per statement: its span of buf
	// place's: statement numbers by name, their states (0 new, 1 visiting,
	// 2 written), the stack of referenced names.
	byName map[string]int
	state  []int8
	refs   []string
}

// fresh sanitizes a statement name into a unique SQL identifier, applying
// the configured temporary-table prefix.
func (r *sqlRenderer) fresh(name string) string {
	s := strings.Trim(strings.Map(func(c rune) rune {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			return c
		case c == '[', c == ',', c == ']':
			return '_'
		}
		return -1
	}, name), "_")
	if s == "" {
		s = "t"
	}
	s = r.opts.TempPrefix + s
	if _, used := r.seq[s]; !used {
		r.seq[s] = 0
		return s
	}
	// Collision: programs lift thousands of same-named fixpoint temps, so
	// the suffix search must not restart from 2 each time.
	base, i := s, max(r.seq[s], 2)
	for used := true; used; i++ {
		s = base + "_" + strconv.Itoa(i)
		_, used = r.seq[s]
	}
	r.seq[base], r.seq[s] = i, 0
	return s
}

func (r *sqlRenderer) alias() string {
	r.aliasN++
	return "q" + strconv.Itoa(r.aliasN)
}

// statement writes CREATE TEMPORARY TABLE table AS followed by what body
// renders, and its separator, to the script.
func (r *sqlRenderer) statement(table string, body func()) {
	start := len(r.buf)
	r.w("CREATE TEMPORARY TABLE ", table, " AS\n")
	body()
	r.stmts = append(r.stmts, SQLStmt{Table: table})
	r.at = append(r.at, [2]int{start, len(r.buf)})
	r.w(";\n\n")
}

// aside renders p and takes the text back out of the statement — for an
// operand that takes its aliases before text preceding its own is written.
func (r *sqlRenderer) aside(p Plan, depth int) string {
	mark := len(r.buf)
	r.render(p, depth)
	s := string(r.buf[mark:])
	r.buf = r.buf[:mark]
	return s
}

// w appends the parts to the statement being written.
func (r *sqlRenderer) w(parts ...string) {
	for _, s := range parts {
		r.buf = append(r.buf, s...)
	}
}

// head starts the first line of a rendering at the given depth; the text so
// far ends in a newline.
func (r *sqlRenderer) head(depth int, parts ...string) {
	for ; depth > 0; depth-- {
		r.buf = append(r.buf, "  "...)
	}
	r.w(parts...)
}

// line ends the current line and starts the next at the given depth.
func (r *sqlRenderer) line(depth int, parts ...string) {
	r.buf = append(r.buf, '\n')
	r.head(depth, parts...)
}

// sub renders p as a parenthesized subselect one level deeper: the open
// parenthesis ends the current line, the closing one starts a line at depth.
func (r *sqlRenderer) sub(p Plan, depth int) {
	r.w("(\n")
	r.render(p, depth+1)
	r.line(depth, ")")
}

// lift gives every Fix and RecUnion in the plan a statement of its own,
// operands first, so each statement carries at most one recursive construct;
// render then references them by table. Plans are values, so an occurrence is
// recognized by structure (its interned number), which also makes equal
// fixpoints share one statement.
func (r *sqlRenderer) lift(p Plan) {
	var buf [4]Plan
	for _, k := range Operands(buf[:0], p) {
		r.lift(k)
	}
	var prefix string
	switch p.(type) {
	case Fix:
		prefix = "fix"
	case RecUnion:
		prefix = "rec"
	default:
		return
	}
	if id := r.in.ID(p); r.lifted[id] == "" {
		r.lifted[id] = r.fresh(prefix)
		r.statement(r.lifted[id], func() { r.renderRec(p, 0) })
	}
}

// renderRec renders a recursive construct itself, not a reference to it.
func (r *sqlRenderer) renderRec(p Plan, depth int) {
	if f, ok := p.(Fix); ok {
		r.renderFix(f, depth)
	} else {
		r.renderRecUnion(p.(RecUnion), depth)
	}
}

// col names the column an OnF attribute selects.
func col(onF bool) string {
	if onF {
		return "F"
	}
	return "T"
}

// render writes a SELECT with columns F, T, V for the plan, every line of it
// at the given depth or deeper.
func (r *sqlRenderer) render(p Plan, depth int) {
	switch p := p.(type) {
	case Base:
		r.head(depth, "SELECT F, T, V FROM ", p.Rel)
	case Temp:
		r.head(depth, "SELECT F, T, V FROM ", r.names[p.Name])
	case RootSeed:
		r.head(depth, "SELECT '_' AS F, '_' AS T, '' AS V")
	case Ident:
		r.head(depth, "SELECT ID AS F, ID AS T, VAL AS V FROM ", r.opts.NodesTable)
	case IdentOf:
		a, c := r.alias(), col(p.OnF)
		r.head(depth, "SELECT DISTINCT ", a, ".", c, " AS F, ", a, ".", c, " AS T, ", a, ".V AS V FROM ")
		r.sub(p.Child, depth)
		r.w(" ", a)
	case Compose:
		l, rt, sel := r.alias(), r.alias(), "SELECT DISTINCT "
		if r.prog.Distinct(p) {
			sel = "SELECT "
		}
		r.head(depth, sel, l, ".F, ", rt, ".T, ", rt, ".V FROM ")
		r.sub(p.L, depth)
		r.w(" ", l, " JOIN ")
		r.sub(p.R, depth)
		r.w(" ", rt, " ON ", l, ".T = ", rt, ".F")
	case UnionAll:
		if len(p.Kids) == 0 {
			r.head(depth, "SELECT F, T, V FROM (SELECT '_' AS F, '_' AS T, '' AS V) z WHERE 1 = 0")
		}
		op := "UNION\n"
		if r.prog.Distinct(p) {
			op = "UNION ALL\n"
		}
		for i, k := range p.Kids {
			if i > 0 {
				r.line(depth, op)
			}
			r.setOperand(k, depth)
		}
	case SelectVal:
		a := r.selectFrom(p.Child, depth)
		r.w(" WHERE ", a, ".V = '", escapeSQL(p.Val), "'")
	case SelectRoot:
		a := r.selectFrom(p.Child, depth)
		r.w(" WHERE ", a, ".F = '_'")
	case Semijoin:
		r.exists(p.L, p.R, "", depth)
	case Antijoin:
		r.exists(p.L, p.R, "NOT ", depth)
	case Diff:
		r.setOperand(p.L, depth)
		r.line(depth, "EXCEPT\n")
		r.setOperand(p.R, depth)
	case TypeFilter:
		a := r.selectFrom(p.Child, depth)
		r.w(" WHERE EXISTS (SELECT 1 FROM ", p.Rel, " w WHERE w.T = ", a, ".", col(p.OnF), ")")
	case Fix, RecUnion:
		// Rendered via a lifted statement.
		if name := r.lifted[r.in.ID(p)]; name != "" {
			r.head(depth, "SELECT F, T, V FROM ", name)
		} else {
			r.renderRec(p, depth)
		}
	case DescScan:
		// A foreign RDBMS holds no interval encoding: the scan renders as
		// its equivalent fixpoint alternative, with the pushed constraints
		// as explicit filters (the alternative may be a shared temp that
		// does not carry them itself).
		if p.Start == nil && p.End == nil {
			r.render(p.Alt, depth)
			return
		}
		// The constraints take their aliases before the alternative does,
		// and their text follows its.
		a := r.alias()
		var st, en string
		if p.Start != nil {
			st = r.aside(p.Start, depth+1)
		}
		if p.End != nil {
			en = r.aside(p.End, depth+1)
		}
		r.head(depth, "SELECT ", a, ".F, ", a, ".T, ", a, ".V FROM ")
		r.sub(p.Alt, depth)
		r.w(" ", a, " WHERE ")
		if p.Start != nil {
			r.w(a, ".F IN (SELECT T FROM (\n", st)
			r.line(depth, ") st)")
		}
		if p.Start != nil && p.End != nil {
			r.w(" AND ")
		}
		if p.End != nil {
			r.w(a, ".T IN (SELECT F FROM (\n", en)
			r.line(depth, ") en)")
		}
	default:
		if r.err == nil {
			r.err = fmt.Errorf("%w: %T", ErrUnsupportedPlan, p)
		}
		r.head(depth, "-- unsupported plan")
	}
}

// selectFrom writes SELECT a.F, a.T, a.V FROM (p) a under a fresh alias a
// and returns it, for the caller to append its WHERE.
func (r *sqlRenderer) selectFrom(p Plan, depth int) string {
	a := r.alias()
	r.head(depth, "SELECT ", a, ".F, ", a, ".T, ", a, ".V FROM ")
	r.sub(p, depth)
	r.w(" ", a)
	return a
}

// exists renders the semijoin (not = "") or antijoin (not = "NOT ") of l by r.
func (r *sqlRenderer) exists(l, w Plan, not string, depth int) {
	la, wa := r.alias(), r.alias()
	r.head(depth, "SELECT ", la, ".F, ", la, ".T, ", la, ".V FROM ")
	r.sub(l, depth)
	r.w(" ", la, " WHERE ", not, "EXISTS (SELECT 1 FROM ")
	r.sub(w, depth)
	r.w(" ", wa, " WHERE ", wa, ".F = ", la, ".T)")
}

// setOperand renders a plan as an operand of UNION / EXCEPT. SQL gives the
// two operators equal precedence with left associativity, so an operand
// that is itself a set operation must be wrapped in a subselect: a bare
// "a EXCEPT b UNION c" parses as "(a EXCEPT b) UNION c" regardless of the
// plan shape that produced it.
func (r *sqlRenderer) setOperand(p Plan, depth int) {
	compound := false
	switch p := p.(type) {
	case UnionAll:
		compound = len(p.Kids) > 1
	case Diff:
		compound = true
	}
	if compound {
		r.selectFrom(p, depth)
	} else {
		r.render(p, depth)
	}
}

// renderFix renders the single-input LFP operator Φ(R) (Eq. 2 / Fig 4).
func (r *sqlRenderer) renderFix(p Fix, depth int) {
	// in writes "<col> IN (SELECT <of> FROM (c) <as>)", c one level deeper.
	in := func(col, of string, c Plan, as string) {
		r.w(col, " IN (SELECT ", of, " FROM (\n")
		r.render(c, depth+1)
		r.line(depth, ") ", as, ")")
	}
	if r.opts.Dialect == DialectOracle {
		// Fig 4, Oracle: CONNECT BY with the seed as the edge relation.
		if p.End != nil {
			r.head(depth, "SELECT * FROM (\n")
			depth++
		}
		r.head(depth, "WITH seed (F, T, V) AS (\n")
		r.render(p.Seed, depth+1)
		// The DB2 form's constraints were rendered here, and dropped, before
		// this form's own: the aliases they took stay taken.
		for _, c := range []Plan{p.Start, p.End} {
			if c != nil {
				r.aside(c, 0)
			}
		}
		r.line(depth, ")")
		r.line(depth, "SELECT DISTINCT CONNECT_BY_ROOT s.F AS F, s.T AS T, s.V AS V")
		r.line(depth, "FROM seed s")
		r.line(depth, "START WITH ")
		if p.Start != nil {
			in("s.F", "T", p.Start, "st")
		} else {
			r.w("s.F IN (SELECT F FROM seed)")
		}
		r.line(depth, "CONNECT BY NOCYCLE PRIOR s.T = s.F")
		if r.opts.MaxRecIters > 0 {
			// LEVEL n reaches paths of n edges — the same frontier the
			// engine's n-th fixpoint iteration produces.
			r.w(" AND LEVEL <= ", strconv.Itoa(r.opts.MaxRecIters))
		}
		if p.End != nil {
			depth--
			r.line(depth, ") cb WHERE ")
			in("cb.T", "F", p.End, "en")
		}
		return
	}
	r.head(depth, "WITH RECURSIVE fp (F, T, V) AS (")
	r.line(depth+1, "SELECT s.F, s.T, s.V FROM (\n")
	from := len(r.buf)
	r.render(p.Seed, depth+1)
	to := len(r.buf)
	r.line(depth+1, ") s")
	if p.Start != nil {
		r.w(" WHERE ")
		in("s.F", "T", p.Start, "st")
	}
	r.line(depth+1, "UNION ALL")
	r.line(depth+1, "SELECT fp.F, s.T, s.V FROM fp JOIN (\n")
	r.buf = append(r.buf, r.buf[from:to]...)
	r.line(depth+1, ") s ON fp.T = s.F")
	r.line(depth, ")")
	if p.End == nil {
		r.line(depth, "SELECT DISTINCT F, T, V FROM fp")
		return
	}
	r.line(depth, "SELECT DISTINCT fp.F, fp.T, fp.V FROM fp WHERE ")
	in("fp.T", "F", p.End, "en")
}

// renderRecUnion renders the SQLGen-R multi-relation fixpoint exactly in the
// style of Fig 2: one select per edge inside the recursive body, Rid tags.
func (r *sqlRenderer) renderRecUnion(p RecUnion, depth int) {
	r.head(depth, "WITH RECURSIVE R (F, T, Rid, V) AS (")
	// A fixpoint can degenerate to seeds only (no recursive edges reach the
	// result): arms are joined, never a bare "UNION ALL" emitted.
	arms := 0
	arm := func(sel string, c Plan) {
		if arms++; arms > 1 {
			r.line(depth+1, "UNION ALL")
		}
		r.line(depth+1, sel)
		r.sub(c, depth+1)
	}
	for _, t := range p.Init {
		arm("SELECT i.F, i.T, '"+escapeSQL(t.Tag)+"' AS Rid, i.V FROM ", t.Plan)
		r.w(" i")
	}
	fcol := "e.F"
	if p.Pairs {
		fcol = "R.F"
	}
	for _, e := range p.Edges {
		arm("SELECT "+fcol+" AS F, e.T, '"+escapeSQL(e.ToTag)+"' AS Rid, e.V FROM R, ", e.Rel)
		r.w(" e WHERE R.T = e.F AND R.Rid = '", escapeSQL(e.FromTag), "'")
	}
	r.line(depth, ")")
	r.line(depth, "SELECT DISTINCT F, T, V FROM R")
	if p.ResultTag != "" {
		r.w(" WHERE Rid = '", escapeSQL(p.ResultTag), "'")
	}
}

// escapeSQL escapes a value for embedding in a standard SQL string literal.
// Quote doubling is the only escape standard SQL defines: backslashes, NUL
// bytes, newlines and non-UTF8 byte sequences are all ordinary literal
// content and must pass through unchanged, or σ_{V=c} would compare against
// a different value than the one the store holds. EscapeStringLiteral is the
// exported form; the INSERT path never embeds values at all (InsertSQL is
// fully parameterized), so hostile bytes only ever travel as bind arguments
// or inside a quoted literal.
func escapeSQL(s string) string {
	return strings.ReplaceAll(s, "'", "''")
}
