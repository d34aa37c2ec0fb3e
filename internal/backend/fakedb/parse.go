package fakedb

import (
	"fmt"
	"strings"
)

// The lexer and parser cover exactly the SQL the ra renderer emits plus the
// DDL/INSERT statements ra's emission helpers produce: CREATE TABLE,
// CREATE TEMPORARY TABLE … AS, DROP TABLE [IF EXISTS], parameterized
// INSERT … VALUES, and SELECT with DISTINCT, subqueries, JOIN … ON, comma
// joins, WHERE conjunctions of =, IN (subquery), [NOT] EXISTS, UNION [ALL],
// EXCEPT, and WITH [RECURSIVE] … AS (…) queries. Anything else is a parse
// error — deliberately, so the differential suite catches renderer drift
// instead of silently misreading it.

type tokKind int

const (
	tkEOF tokKind = iota
	tkIdent
	tkString // contents already unescaped ('' -> ')
	tkNumber
	tkPunct // ( ) , . = ?
)

type token struct {
	kind tokKind
	text string
	pos  int
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == ';':
			// Statement terminator; callers send one statement per call.
			l.pos++
		case c == '\'':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		case c >= '0' && c <= '9':
			start := l.pos
			for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
				l.pos++
			}
			l.toks = append(l.toks, token{tkNumber, l.src[start:l.pos], start})
		case c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'):
			start := l.pos
			for l.pos < len(l.src) && isIdentByte(l.src[l.pos]) {
				l.pos++
			}
			l.toks = append(l.toks, token{tkIdent, l.src[start:l.pos], start})
		case c == '(' || c == ')' || c == ',' || c == '.' || c == '=' || c == '?':
			l.toks = append(l.toks, token{tkPunct, string(c), l.pos})
			l.pos++
		default:
			return nil, fmt.Errorf("fakesql: unexpected byte %q at %d", c, l.pos)
		}
	}
	l.toks = append(l.toks, token{tkEOF, "", l.pos})
	return l.toks, nil
}

// lexString scans a single-quoted literal. The content is raw bytes — NULs,
// newlines and non-UTF8 sequences included — with a doubled quote decoding to a
// single quote, matching ra's escapeSQL.
func (l *lexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				b.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			l.toks = append(l.toks, token{tkString, b.String(), start})
			return nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("fakesql: unterminated string literal at %d", start)
}

func isIdentByte(c byte) bool {
	return c == '_' || (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

// ---- AST ----

type stmtNode interface{ isStmt() }

type createTable struct {
	name string
	cols []string
}

type createTableAs struct {
	name  string
	query queryNode
	temp  bool
}

type dropTable struct {
	name     string
	ifExists bool
}

type insertStmt struct {
	table  string
	cols   []string
	rows   [][]exprNode
	params int // number of ? placeholders
}

type queryStmt struct{ query queryNode }

func (*createTable) isStmt()   {}
func (*createTableAs) isStmt() {}
func (*dropTable) isStmt()     {}
func (*insertStmt) isStmt()    {}
func (*queryStmt) isStmt()     {}

type queryNode interface{ isQuery() }

// withNode is WITH [RECURSIVE] name (cols) AS ( body ) outer.
type withNode struct {
	recursive bool
	name      string
	cols      []string
	body      *compoundNode
	outer     queryNode
}

// compoundNode is select (op select)* with ops "UNION", "UNION ALL",
// "EXCEPT" — equal precedence, left-associative, as in standard SQL.
type compoundNode struct {
	parts []*selectNode
	ops   []string // len(parts)-1
}

func (*withNode) isQuery()     {}
func (*compoundNode) isQuery() {}

type selectNode struct {
	distinct bool
	items    []selItem
	from     []fromItem
	where    []condNode // conjuncts
}

type selItem struct {
	e     exprNode
	alias string
}

type fromItem struct {
	table string // base table / CTE reference when sub == nil
	sub   queryNode
	alias string
	on    []condNode // JOIN … ON conjuncts (empty for the first item / comma joins)
}

type condNode interface{ isCond() }

type condEq struct{ l, r exprNode }

type condIn struct {
	e exprNode
	q queryNode
}

type condExists struct {
	q   queryNode
	neg bool
}

func (*condEq) isCond()     {}
func (*condIn) isCond()     {}
func (*condExists) isCond() {}

type exprNode interface{ isExpr() }

type colRef struct{ alias, col string }

type litExpr struct{ s string }

type numExpr struct{ s string }

type paramExpr struct{ idx int }

func (*colRef) isExpr()    {}
func (*litExpr) isExpr()   {}
func (*numExpr) isExpr()   {}
func (*paramExpr) isExpr() {}

// ---- parser ----

type parser struct {
	toks   []token
	pos    int
	params int
}

func parseStatement(src string) (stmtNode, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	st, err := p.statement()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errf("trailing input after statement")
	}
	return st, nil
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) atEOF() bool { return p.cur().kind == tkEOF }

func (p *parser) errf(format string, args ...any) error {
	t := p.cur()
	return fmt.Errorf("fakesql: %s (near %q at %d)", fmt.Sprintf(format, args...), t.text, t.pos)
}

// isKw reports whether the current token is the given keyword
// (case-insensitive), without consuming it.
func (p *parser) isKw(kw string) bool {
	t := p.cur()
	return t.kind == tkIdent && strings.EqualFold(t.text, kw)
}

func (p *parser) eatKw(kw string) bool {
	if p.isKw(kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKw(kw string) error {
	if !p.eatKw(kw) {
		return p.errf("expected %s", kw)
	}
	return nil
}

func (p *parser) eatPunct(s string) bool {
	t := p.cur()
	if t.kind == tkPunct && t.text == s {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.eatPunct(s) {
		return p.errf("expected %q", s)
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.cur()
	if t.kind != tkIdent {
		return "", p.errf("expected identifier")
	}
	p.pos++
	return t.text, nil
}

func (p *parser) statement() (stmtNode, error) {
	switch {
	case p.isKw("CREATE"):
		return p.createStmt()
	case p.isKw("DROP"):
		return p.dropStmt()
	case p.isKw("INSERT"):
		return p.insertStmt()
	case p.isKw("SELECT"), p.isKw("WITH"):
		q, err := p.query()
		if err != nil {
			return nil, err
		}
		return &queryStmt{query: q}, nil
	}
	return nil, p.errf("unsupported statement")
}

func (p *parser) createStmt() (stmtNode, error) {
	p.pos++ // CREATE
	temp := p.eatKw("TEMPORARY") || p.eatKw("TEMP")
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if p.eatKw("AS") {
		q, err := p.query()
		if err != nil {
			return nil, err
		}
		return &createTableAs{name: name, query: q, temp: temp}, nil
	}
	// Column-definition form: name (col TYPE, …); types are parsed and
	// discarded — everything is a string.
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var cols []string
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		cols = append(cols, col)
		if err := p.skipType(); err != nil {
			return nil, err
		}
		if p.eatPunct(",") {
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return &createTable{name: name, cols: cols}, nil
}

// skipType consumes a column type: IDENT [( NUMBER )].
func (p *parser) skipType() error {
	if _, err := p.ident(); err != nil {
		return err
	}
	if p.eatPunct("(") {
		if p.cur().kind != tkNumber {
			return p.errf("expected type length")
		}
		p.pos++
		if err := p.expectPunct(")"); err != nil {
			return err
		}
	}
	return nil
}

func (p *parser) dropStmt() (stmtNode, error) {
	p.pos++ // DROP
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	ifExists := false
	if p.eatKw("IF") {
		if err := p.expectKw("EXISTS"); err != nil {
			return nil, err
		}
		ifExists = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	return &dropTable{name: name, ifExists: ifExists}, nil
}

func (p *parser) insertStmt() (stmtNode, error) {
	p.pos++ // INSERT
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	var cols []string
	if p.eatPunct("(") {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			cols = append(cols, col)
			if p.eatPunct(",") {
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	var rows [][]exprNode
	for {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var row []exprNode
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.eatPunct(",") {
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		rows = append(rows, row)
		if p.eatPunct(",") {
			continue
		}
		break
	}
	return &insertStmt{table: table, cols: cols, rows: rows, params: p.params}, nil
}

func (p *parser) query() (queryNode, error) {
	if p.eatKw("WITH") {
		recursive := p.eatKw("RECURSIVE")
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		var cols []string
		if p.eatPunct("(") {
			for {
				col, err := p.ident()
				if err != nil {
					return nil, err
				}
				cols = append(cols, col)
				if p.eatPunct(",") {
					continue
				}
				break
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
		}
		if err := p.expectKw("AS"); err != nil {
			return nil, err
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		body, err := p.compound()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		outer, err := p.query()
		if err != nil {
			return nil, err
		}
		return &withNode{recursive: recursive, name: name, cols: cols, body: body, outer: outer}, nil
	}
	return p.compound()
}

func (p *parser) compound() (*compoundNode, error) {
	first, err := p.selectStmt()
	if err != nil {
		return nil, err
	}
	c := &compoundNode{parts: []*selectNode{first}}
	for {
		var op string
		switch {
		case p.isKw("UNION"):
			p.pos++
			op = "UNION"
			if p.eatKw("ALL") {
				op = "UNION ALL"
			}
		case p.isKw("EXCEPT"):
			p.pos++
			op = "EXCEPT"
		default:
			return c, nil
		}
		next, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		c.parts = append(c.parts, next)
		c.ops = append(c.ops, op)
	}
}

func (p *parser) selectStmt() (*selectNode, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	s := &selectNode{distinct: p.eatKw("DISTINCT")}
	for {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		it := selItem{e: e}
		if p.eatKw("AS") {
			a, err := p.ident()
			if err != nil {
				return nil, err
			}
			it.alias = a
		}
		s.items = append(s.items, it)
		if p.eatPunct(",") {
			continue
		}
		break
	}
	if p.eatKw("FROM") {
		item, err := p.fromItem()
		if err != nil {
			return nil, err
		}
		s.from = append(s.from, item)
		for {
			if p.eatPunct(",") {
				item, err := p.fromItem()
				if err != nil {
					return nil, err
				}
				s.from = append(s.from, item)
				continue
			}
			if p.eatKw("JOIN") {
				item, err := p.fromItem()
				if err != nil {
					return nil, err
				}
				if err := p.expectKw("ON"); err != nil {
					return nil, err
				}
				conds, err := p.conjuncts()
				if err != nil {
					return nil, err
				}
				item.on = conds
				s.from = append(s.from, item)
				continue
			}
			break
		}
	}
	if p.eatKw("WHERE") {
		conds, err := p.conjuncts()
		if err != nil {
			return nil, err
		}
		s.where = conds
	}
	return s, nil
}

func (p *parser) fromItem() (fromItem, error) {
	if p.eatPunct("(") {
		q, err := p.query()
		if err != nil {
			return fromItem{}, err
		}
		if err := p.expectPunct(")"); err != nil {
			return fromItem{}, err
		}
		alias, err := p.ident()
		if err != nil {
			return fromItem{}, fmt.Errorf("fakesql: FROM subquery requires an alias: %w", err)
		}
		return fromItem{sub: q, alias: alias}, nil
	}
	name, err := p.ident()
	if err != nil {
		return fromItem{}, err
	}
	it := fromItem{table: name, alias: name}
	// Optional alias: a following identifier that is not a clause keyword.
	if t := p.cur(); t.kind == tkIdent && !isClauseKw(t.text) {
		it.alias = t.text
		p.pos++
	}
	return it, nil
}

func isClauseKw(s string) bool {
	switch strings.ToUpper(s) {
	case "WHERE", "JOIN", "ON", "UNION", "EXCEPT", "ALL", "AS", "FROM", "AND", "IN", "EXISTS", "NOT", "SELECT", "DISTINCT", "WITH", "RECURSIVE", "START", "CONNECT":
		return true
	}
	return false
}

func (p *parser) conjuncts() ([]condNode, error) {
	var out []condNode
	for {
		c, err := p.cond()
		if err != nil {
			return nil, err
		}
		out = append(out, c)
		if p.eatKw("AND") {
			continue
		}
		return out, nil
	}
}

func (p *parser) cond() (condNode, error) {
	if p.eatKw("EXISTS") {
		q, err := p.parenQuery()
		if err != nil {
			return nil, err
		}
		return &condExists{q: q}, nil
	}
	if p.eatKw("NOT") {
		if err := p.expectKw("EXISTS"); err != nil {
			return nil, err
		}
		q, err := p.parenQuery()
		if err != nil {
			return nil, err
		}
		return &condExists{q: q, neg: true}, nil
	}
	l, err := p.expr()
	if err != nil {
		return nil, err
	}
	if p.eatKw("IN") {
		q, err := p.parenQuery()
		if err != nil {
			return nil, err
		}
		return &condIn{e: l, q: q}, nil
	}
	if err := p.expectPunct("="); err != nil {
		return nil, err
	}
	r, err := p.expr()
	if err != nil {
		return nil, err
	}
	return &condEq{l: l, r: r}, nil
}

func (p *parser) parenQuery() (queryNode, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	q, err := p.query()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return q, nil
}

func (p *parser) expr() (exprNode, error) {
	t := p.cur()
	switch t.kind {
	case tkString:
		p.pos++
		return &litExpr{s: t.text}, nil
	case tkNumber:
		p.pos++
		return &numExpr{s: t.text}, nil
	case tkPunct:
		if t.text == "?" {
			p.pos++
			e := &paramExpr{idx: p.params}
			p.params++
			return e, nil
		}
	case tkIdent:
		p.pos++
		if p.eatPunct(".") {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &colRef{alias: t.text, col: col}, nil
		}
		return &colRef{col: t.text}, nil
	}
	return nil, p.errf("expected expression")
}
