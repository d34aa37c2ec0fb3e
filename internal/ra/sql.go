package ra

import (
	"fmt"
	"sort"
	"strings"
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
	var b strings.Builder
	for _, s := range rs.Stmts {
		b.WriteString(s.SQL)
		b.WriteString(";\n\n")
	}
	b.WriteString(rs.ResultQuery)
	b.WriteString(";\n")
	return b.String()
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
}

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
	r := &sqlRenderer{opts: opts, names: map[string]string{}, used: map[string]bool{}, baseSeq: map[string]int{}}
	// Pre-assign sanitized names for all statements.
	for _, s := range p.Stmts {
		r.names[s.Name] = r.fresh(s.Name)
	}
	// Topologically order statements (the optimizer may append shared
	// temps after their uses).
	ordered := topoStmts(p)
	rs := &RenderedSQL{}
	if opts.MaxRecIters > 0 && opts.Dialect == DialectDB2 {
		// DB2 bounds WITH RECURSIVE depth per session; Oracle renderings
		// carry the equivalent guard inline (AND LEVEL <= n in renderFix).
		rs.Session = append(rs.Session,
			fmt.Sprintf("SET MAX_RECURSIVE_ITERATIONS = %d", opts.MaxRecIters))
		rs.SessionReset = append(rs.SessionReset,
			"SET MAX_RECURSIVE_ITERATIONS = 0")
	}
	for _, s := range ordered {
		for _, pre := range r.lift(s.Plan) {
			rs.Stmts = append(rs.Stmts, SQLStmt{
				Table: pre.name,
				SQL:   fmt.Sprintf("CREATE TEMPORARY TABLE %s AS\n%s", pre.name, pre.sql),
			})
		}
		sql := r.render(s.Plan, 0)
		rs.Stmts = append(rs.Stmts, SQLStmt{
			Table: r.names[s.Name],
			SQL:   fmt.Sprintf("CREATE TEMPORARY TABLE %s AS\n%s", r.names[s.Name], sql),
		})
	}
	rs.ResultTable = r.names[p.Result]
	rs.ResultQuery = fmt.Sprintf("SELECT DISTINCT T FROM %s", rs.ResultTable)
	return rs, r.err
}

// topoStmts orders statements so every Temp reference points backwards.
func topoStmts(p *Program) []Stmt {
	byName := map[string]Stmt{}
	for _, s := range p.Stmts {
		byName[s.Name] = s
	}
	var order []Stmt
	state := map[string]int{} // 0 new, 1 visiting, 2 done
	var visit func(name string)
	visit = func(name string) {
		s, ok := byName[name]
		if !ok || state[name] != 0 {
			return
		}
		state[name] = 1
		for _, dep := range TempRefs(s.Plan) {
			visit(dep)
		}
		state[name] = 2
		order = append(order, s)
	}
	for _, s := range p.Stmts {
		visit(s.Name)
	}
	return order
}

// TempRefs lists the temp-table names referenced by a plan, sorted; it
// defines the statement dependency graph used by parallel execution and the
// SQL renderer's topological ordering.
func TempRefs(p Plan) []string { return tempRefs(p, true) }

// KernelTempRefs is TempRefs for an engine that answers every DescScan with
// its interval kernel: the fixpoint alternative Alt is never read, so the
// temps only it mentions are not dependencies.
func KernelTempRefs(p Plan) []string { return tempRefs(p, false) }

func tempRefs(p Plan, alt bool) []string {
	set := map[string]bool{}
	var walk func(Plan)
	walk = func(p Plan) {
		if t, ok := p.(Temp); ok {
			set[t.Name] = true
			return
		}
		in := Inputs(p)
		if _, ok := p.(DescScan); ok && !alt {
			in = in[1:]
		}
		for _, k := range in {
			walk(k)
		}
	}
	walk(p)
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

type lifted struct {
	name string
	sql  string
}

type sqlRenderer struct {
	opts    SQLRenderOptions
	names   map[string]string
	used    map[string]bool
	baseSeq map[string]int // next numeric suffix per colliding base name
	counter int
	lifts   []lifted
	aliasN  int
	err     error
}

// fresh sanitizes a statement name into a unique SQL identifier, applying
// the configured temporary-table prefix.
func (r *sqlRenderer) fresh(name string) string {
	var b strings.Builder
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteRune(c)
		case c == '[', c == ',', c == ']':
			b.WriteRune('_')
		}
	}
	s := strings.Trim(b.String(), "_")
	if s == "" {
		s = "t"
	}
	s = r.opts.TempPrefix + s
	if !r.used[s] {
		r.used[s] = true
		return s
	}
	// Collision: programs lift thousands of same-named fixpoint temps, so
	// the suffix search must not restart from 2 each time.
	base := s
	i := r.baseSeq[base]
	if i < 2 {
		i = 2
	}
	for {
		s = fmt.Sprintf("%s_%d", base, i)
		i++
		if !r.used[s] {
			break
		}
	}
	r.baseSeq[base] = i
	r.used[s] = true
	return s
}

func (r *sqlRenderer) alias() string {
	r.aliasN++
	return fmt.Sprintf("q%d", r.aliasN)
}

// lift extracts every Fix and RecUnion in the plan into its own statement
// and returns their definitions in dependency order; the original plan's
// recursive nodes are replaced by temp references (mutating via names map is
// avoided: render recognizes lifted nodes by pointer identity through the
// liftNames map).
func (r *sqlRenderer) lift(p Plan) []lifted {
	r.lifts = nil
	r.liftPlan(p)
	return r.lifts
}

// liftNames maps rendered recursive nodes (by their String form, which is
// structural) to the lifted temp name. Within a single statement this is
// both sound and deduplicating.

func (r *sqlRenderer) liftPlan(p Plan) {
	switch p := p.(type) {
	case Fix:
		r.liftPlan(p.Seed)
		if p.Start != nil {
			r.liftPlan(p.Start)
		}
		if p.End != nil {
			r.liftPlan(p.End)
		}
		key := p.String()
		if _, done := r.names[key]; !done {
			name := r.fresh("fix")
			r.names[key] = name
			r.lifts = append(r.lifts, lifted{name: name, sql: r.renderFix(p)})
		}
	case RecUnion:
		for _, t := range p.Init {
			r.liftPlan(t.Plan)
		}
		for _, e := range p.Edges {
			r.liftPlan(e.Rel)
		}
		key := p.String()
		if _, done := r.names[key]; !done {
			name := r.fresh("rec")
			r.names[key] = name
			r.lifts = append(r.lifts, lifted{name: name, sql: r.renderRecUnion(p)})
		}
	case DescScan:
		r.liftPlan(p.Alt)
		if p.Start != nil {
			r.liftPlan(p.Start)
		}
		if p.End != nil {
			r.liftPlan(p.End)
		}
	case Compose:
		r.liftPlan(p.L)
		r.liftPlan(p.R)
	case UnionAll:
		for _, k := range p.Kids {
			r.liftPlan(k)
		}
	case SelectVal:
		r.liftPlan(p.Child)
	case SelectRoot:
		r.liftPlan(p.Child)
	case Semijoin:
		r.liftPlan(p.L)
		r.liftPlan(p.R)
	case Antijoin:
		r.liftPlan(p.L)
		r.liftPlan(p.R)
	case Diff:
		r.liftPlan(p.L)
		r.liftPlan(p.R)
	case IdentOf:
		r.liftPlan(p.Child)
	case TypeFilter:
		r.liftPlan(p.Child)
	}
}

func indent(s string, n int) string {
	pad := strings.Repeat("  ", n)
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		if l != "" {
			lines[i] = pad + l
		}
	}
	return strings.Join(lines, "\n")
}

// render produces a SELECT with columns F, T, V for the plan.
func (r *sqlRenderer) render(p Plan, depth int) string {
	switch p := p.(type) {
	case Base:
		return fmt.Sprintf("SELECT F, T, V FROM %s", p.Rel)
	case Temp:
		return fmt.Sprintf("SELECT F, T, V FROM %s", r.names[p.Name])
	case RootSeed:
		return "SELECT '_' AS F, '_' AS T, '' AS V"
	case Ident:
		return fmt.Sprintf("SELECT ID AS F, ID AS T, VAL AS V FROM %s", r.opts.NodesTable)
	case IdentOf:
		col := "T"
		if p.OnF {
			col = "F"
		}
		a := r.alias()
		return fmt.Sprintf("SELECT DISTINCT %s.%s AS F, %s.%s AS T, %s.V AS V FROM (\n%s\n) %s",
			a, col, a, col, a, indent(r.render(p.Child, depth+1), 1), a)
	case Compose:
		l, rt := r.alias(), r.alias()
		return fmt.Sprintf("SELECT DISTINCT %s.F, %s.T, %s.V FROM (\n%s\n) %s JOIN (\n%s\n) %s ON %s.T = %s.F",
			l, rt, rt,
			indent(r.render(p.L, depth+1), 1), l,
			indent(r.render(p.R, depth+1), 1), rt,
			l, rt)
	case UnionAll:
		if len(p.Kids) == 0 {
			return "SELECT F, T, V FROM (SELECT '_' AS F, '_' AS T, '' AS V) z WHERE 1 = 0"
		}
		parts := make([]string, len(p.Kids))
		for i, k := range p.Kids {
			parts[i] = r.setOperand(k, depth+1)
		}
		return strings.Join(parts, "\nUNION\n")
	case SelectVal:
		a := r.alias()
		return fmt.Sprintf("SELECT %s.F, %s.T, %s.V FROM (\n%s\n) %s WHERE %s.V = '%s'",
			a, a, a, indent(r.render(p.Child, depth+1), 1), a, a, escapeSQL(p.Val))
	case SelectRoot:
		a := r.alias()
		return fmt.Sprintf("SELECT %s.F, %s.T, %s.V FROM (\n%s\n) %s WHERE %s.F = '_'",
			a, a, a, indent(r.render(p.Child, depth+1), 1), a, a)
	case Semijoin:
		l, w := r.alias(), r.alias()
		return fmt.Sprintf("SELECT %s.F, %s.T, %s.V FROM (\n%s\n) %s WHERE EXISTS (SELECT 1 FROM (\n%s\n) %s WHERE %s.F = %s.T)",
			l, l, l, indent(r.render(p.L, depth+1), 1), l,
			indent(r.render(p.R, depth+1), 1), w, w, l)
	case Antijoin:
		l, w := r.alias(), r.alias()
		return fmt.Sprintf("SELECT %s.F, %s.T, %s.V FROM (\n%s\n) %s WHERE NOT EXISTS (SELECT 1 FROM (\n%s\n) %s WHERE %s.F = %s.T)",
			l, l, l, indent(r.render(p.L, depth+1), 1), l,
			indent(r.render(p.R, depth+1), 1), w, w, l)
	case Diff:
		return fmt.Sprintf("%s\nEXCEPT\n%s", r.setOperand(p.L, depth+1), r.setOperand(p.R, depth+1))
	case TypeFilter:
		a := r.alias()
		col := "T"
		if p.OnF {
			col = "F"
		}
		return fmt.Sprintf("SELECT %s.F, %s.T, %s.V FROM (\n%s\n) %s WHERE EXISTS (SELECT 1 FROM %s w WHERE w.T = %s.%s)",
			a, a, a, indent(r.render(p.Child, depth+1), 1), a, p.Rel, a, col)
	case Fix:
		// Rendered via a lifted statement.
		if name, ok := r.names[p.String()]; ok {
			return fmt.Sprintf("SELECT F, T, V FROM %s", name)
		}
		return r.renderFix(p)
	case RecUnion:
		if name, ok := r.names[p.String()]; ok {
			return fmt.Sprintf("SELECT F, T, V FROM %s", name)
		}
		return r.renderRecUnion(p)
	case DescScan:
		// A foreign RDBMS holds no interval encoding: the scan renders as
		// its equivalent fixpoint alternative, with the pushed constraints
		// as explicit filters (the alternative may be a shared temp that
		// does not carry them itself).
		if p.Start == nil && p.End == nil {
			return r.render(p.Alt, depth)
		}
		a := r.alias()
		var conds []string
		if p.Start != nil {
			conds = append(conds, fmt.Sprintf("%s.F IN (SELECT T FROM (\n%s\n) st)",
				a, indent(r.render(p.Start, depth+2), 1)))
		}
		if p.End != nil {
			conds = append(conds, fmt.Sprintf("%s.T IN (SELECT F FROM (\n%s\n) en)",
				a, indent(r.render(p.End, depth+2), 1)))
		}
		return fmt.Sprintf("SELECT %s.F, %s.T, %s.V FROM (\n%s\n) %s WHERE %s",
			a, a, a, indent(r.render(p.Alt, depth+1), 1), a, strings.Join(conds, " AND "))
	}
	if r.err == nil {
		r.err = fmt.Errorf("%w: %T", ErrUnsupportedPlan, p)
	}
	return "-- unsupported plan"
}

// setOperand renders a plan as an operand of UNION / EXCEPT. SQL gives the
// two operators equal precedence with left associativity, so an operand
// that is itself a set operation must be wrapped in a subselect: a bare
// "a EXCEPT b UNION c" parses as "(a EXCEPT b) UNION c" regardless of the
// plan shape that produced it.
func (r *sqlRenderer) setOperand(p Plan, depth int) string {
	compound := false
	switch p := p.(type) {
	case UnionAll:
		compound = len(p.Kids) > 1
	case Diff:
		compound = true
	}
	if !compound {
		return r.render(p, depth)
	}
	a := r.alias()
	return fmt.Sprintf("SELECT %s.F, %s.T, %s.V FROM (\n%s\n) %s",
		a, a, a, indent(r.render(p, depth+1), 1), a)
}

// renderFix renders the single-input LFP operator Φ(R) (Eq. 2 / Fig 4).
func (r *sqlRenderer) renderFix(p Fix) string {
	seed := r.render(p.Seed, 1)
	startCond := ""
	if p.Start != nil {
		startCond = fmt.Sprintf(" WHERE s.F IN (SELECT T FROM (\n%s\n) st)", indent(r.render(p.Start, 2), 1))
	}
	endSel := "SELECT DISTINCT F, T, V FROM fp"
	if p.End != nil {
		endSel = fmt.Sprintf("SELECT DISTINCT fp.F, fp.T, fp.V FROM fp WHERE fp.T IN (SELECT F FROM (\n%s\n) en)", indent(r.render(p.End, 2), 1))
	}
	if r.opts.Dialect == DialectOracle {
		// Fig 4, Oracle: CONNECT BY with the seed as the edge relation.
		start := "s.F IN (SELECT F FROM seed)"
		if p.Start != nil {
			start = fmt.Sprintf("s.F IN (SELECT T FROM (\n%s\n) st)", indent(r.render(p.Start, 2), 1))
		}
		connectBy := "CONNECT BY NOCYCLE PRIOR s.T = s.F"
		if r.opts.MaxRecIters > 0 {
			// LEVEL n reaches paths of n edges — the same frontier the
			// engine's n-th fixpoint iteration produces.
			connectBy += fmt.Sprintf(" AND LEVEL <= %d", r.opts.MaxRecIters)
		}
		sql := fmt.Sprintf(`WITH seed (F, T, V) AS (
%s
)
SELECT DISTINCT CONNECT_BY_ROOT s.F AS F, s.T AS T, s.V AS V
FROM seed s
START WITH %s
%s`, indent(seed, 1), start, connectBy)
		if p.End != nil {
			sql = fmt.Sprintf("SELECT * FROM (\n%s\n) cb WHERE cb.T IN (SELECT F FROM (\n%s\n) en)",
				indent(sql, 1), indent(r.render(p.End, 2), 1))
		}
		return sql
	}
	if p.TrackPaths {
		// The P attribute of §5.2: path reconstruction by string
		// concatenation (supported by both DB2 and Oracle).
		endSelP := strings.Replace(endSel, "fp.V", "fp.V, fp.P", 1)
		endSelP = strings.Replace(endSelP, "F, T, V FROM fp", "F, T, V, P FROM fp", 1)
		return fmt.Sprintf(`WITH RECURSIVE fp (F, T, V, P) AS (
  SELECT s.F, s.T, s.V, CAST(s.T AS VARCHAR(1000)) FROM (
%s
  ) s%s
  UNION ALL
  SELECT fp.F, s.T, s.V, fp.P || '/' || s.T FROM fp JOIN (
%s
  ) s ON fp.T = s.F
)
%s`, indent(seed, 1), startCond, indent(seed, 1), endSelP)
	}
	return fmt.Sprintf(`WITH RECURSIVE fp (F, T, V) AS (
  SELECT s.F, s.T, s.V FROM (
%s
  ) s%s
  UNION ALL
  SELECT fp.F, s.T, s.V FROM fp JOIN (
%s
  ) s ON fp.T = s.F
)
%s`, indent(seed, 1), startCond, indent(seed, 1), endSel)
}

// renderRecUnion renders the SQLGen-R multi-relation fixpoint exactly in the
// style of Fig 2: one select per edge inside the recursive body, Rid tags.
func (r *sqlRenderer) renderRecUnion(p RecUnion) string {
	var init []string
	for _, t := range p.Init {
		init = append(init, fmt.Sprintf("SELECT i.F, i.T, '%s' AS Rid, i.V FROM (\n%s\n) i",
			escapeSQL(t.Tag), indent(r.render(t.Plan, 2), 1)))
	}
	var body []string
	for _, e := range p.Edges {
		fcol := "e.F"
		if p.Pairs {
			fcol = "R.F"
		}
		body = append(body, fmt.Sprintf(
			"SELECT %s AS F, e.T, '%s' AS Rid, e.V FROM R, (\n%s\n) e WHERE R.T = e.F AND R.Rid = '%s'",
			fcol, escapeSQL(e.ToTag), indent(r.render(e.Rel, 2), 1), escapeSQL(e.FromTag)))
	}
	final := "SELECT DISTINCT F, T, V FROM R"
	if p.ResultTag != "" {
		final = fmt.Sprintf("SELECT DISTINCT F, T, V FROM R WHERE Rid = '%s'", escapeSQL(p.ResultTag))
	}
	// A fixpoint can degenerate to seeds only (no recursive edges reach the
	// result); emitting a bare "UNION ALL" arm would be invalid SQL.
	rec := indent(strings.Join(init, "\nUNION ALL\n"), 1)
	if len(body) > 0 {
		rec += "\n  UNION ALL\n" + indent(strings.Join(body, "\nUNION ALL\n"), 1)
	}
	return fmt.Sprintf(`WITH RECURSIVE R (F, T, Rid, V) AS (
%s
)
%s`, rec, final)
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
