// Package xpath implements the XPath fragment of Fan et al. (§2.2):
//
//	p ::= ε | A | * | p/p | //p | p ∪ p | p[q]
//	q ::= p | text() = c | ¬q | q ∧ q | q ∨ q
//
// with a parser for a conventional concrete syntax ('.', names, '*', '/',
// '//', '|', '[...]', 'and', 'or', 'not(...)', "text()='c'"), a printer, and
// a direct tree evaluator used as the correctness oracle for the relational
// translation.
package xpath

import "strings"

// Path is a node of the XPath AST.
type Path interface {
	// String renders the path in concrete syntax.
	String() string
	isPath()
}

// Empty is the empty path ε ('.'): it returns the context node.
type Empty struct{}

// Label is a label step A: the children of the context node labeled A.
type Label struct{ Name string }

// Wildcard is '*': all children of the context node.
type Wildcard struct{}

// Seq is p1/p2.
type Seq struct{ L, R Path }

// Desc is //p: the descendant-or-self axis followed by p.
type Desc struct{ P Path }

// Union is p1 ∪ p2 ('p1 | p2').
type Union struct{ L, R Path }

// Filter is p[q].
type Filter struct {
	P Path
	Q Qual
}

func (Empty) isPath()    {}
func (Label) isPath()    {}
func (Wildcard) isPath() {}
func (Seq) isPath()      {}
func (Desc) isPath()     {}
func (Union) isPath()    {}
func (Filter) isPath()   {}

func (p Empty) String() string    { return printPath(p) }
func (p Label) String() string    { return printPath(p) }
func (p Wildcard) String() string { return printPath(p) }
func (p Seq) String() string      { return printPath(p) }
func (p Desc) String() string     { return printPath(p) }
func (p Union) String() string    { return printPath(p) }
func (p Filter) String() string   { return printPath(p) }

func printPath(p Path) string {
	pr := printer{buf: make([]byte, 0, 64)}
	pr.path(p)
	return string(pr.buf)
}

// Printed is a query printed once: its String() and the span of every
// sub-path's printed form in that text, in Subpaths order. One print serves
// a plan-cache key, a program's query text and the translator's classes.
type Printed struct {
	Text  string
	spans [][2]int
}

// Print prints p, marking where each sub-path's text lies.
func Print(p Path) Printed {
	pr := printer{buf: make([]byte, 0, 64), mark: true}
	pr.path(p)
	return Printed{Text: string(pr.buf), spans: pr.spans}
}

// Classes numbers the sub-paths, in Subpaths order, by printed form: two get
// one number exactly when their String() are equal. It returns the numbers
// and how many distinct ones there are.
func (pq Printed) Classes() ([]int32, int) {
	ids := make(map[string]int32, len(pq.spans))
	out := make([]int32, len(pq.spans))
	for i, sp := range pq.spans {
		c, ok := ids[pq.Text[sp[0]:sp[1]]]
		if !ok {
			c = int32(len(ids))
			ids[pq.Text[sp[0]:sp[1]]] = c
		}
		out[i] = c
	}
	return out, len(ids)
}

// printer writes a query front to back into one buffer. Every operand's own
// text appears verbatim in its parent's, so a sub-path's printed form is a
// span of the whole.
type printer struct {
	buf   []byte
	spans [][2]int
	mark  bool
}

func (pr *printer) w(s string) { pr.buf = append(pr.buf, s...) }

func (pr *printer) path(p Path) {
	start := len(pr.buf)
	switch p := p.(type) {
	case Empty:
		pr.w(".")
	case Label:
		pr.w(p.Name)
	case Wildcard:
		pr.w("*")
	case Seq:
		pr.paren(p.L, isUnion(p.L))
		// p1//p2 prints without the redundant '/': Seq{p1, Desc{p2}}.
		if _, ok := p.R.(Desc); ok {
			pr.path(p.R)
		} else {
			pr.w("/")
			pr.step(p.R)
		}
	case Desc:
		pr.w("//")
		pr.step(p.P)
	case Union:
		pr.path(p.L)
		pr.w(" | ")
		pr.path(p.R)
	case Filter:
		// Wrap multi-step operands: a reparsed trailing qualifier binds to the
		// last step, so p1/p2[q] would change the AST.
		switch p.P.(type) {
		case Seq, Desc, Union:
			pr.paren(p.P, true)
		default:
			pr.step(p.P)
		}
		pr.w("[")
		pr.qual(p.Q)
		pr.w("]")
	}
	if pr.mark {
		pr.spans = append(pr.spans, [2]int{start, len(pr.buf)})
	}
}

// step prints a path that follows a '/' or '//', parenthesizing unions and
// paths whose leftmost step is itself a descendant axis (which would print as
// an unparseable run of slashes).
func (pr *printer) step(p Path) { pr.paren(p, isUnion(p) || leadsWithDesc(p)) }

func (pr *printer) paren(p Path, wrap bool) {
	if wrap {
		pr.w("(")
	}
	pr.path(p)
	if wrap {
		pr.w(")")
	}
}

func (pr *printer) qual(q Qual) {
	switch q := q.(type) {
	case QPath:
		pr.path(q.P)
	case QText:
		pr.w("text()=")
		pr.w(quoteLiteral(q.C))
	case QNot:
		pr.w("not(")
		pr.qual(q.Q)
		pr.w(")")
	case QAnd:
		_, l := q.L.(QOr)
		_, r := q.R.(QOr)
		pr.qualParen(q.L, l)
		pr.w(" and ")
		pr.qualParen(q.R, r)
	case QOr:
		pr.qual(q.L)
		pr.w(" or ")
		pr.qual(q.R)
	}
}

func (pr *printer) qualParen(q Qual, wrap bool) {
	if wrap {
		pr.w("(")
	}
	pr.qual(q)
	if wrap {
		pr.w(")")
	}
}

func isUnion(p Path) bool {
	_, ok := p.(Union)
	return ok
}

// leadsWithDesc reports whether the printed form of p begins with "//".
func leadsWithDesc(p Path) bool {
	switch p := p.(type) {
	case Desc:
		return true
	case Seq:
		return leadsWithDesc(p.L)
	case Filter:
		return leadsWithDesc(p.P)
	default:
		return false
	}
}

// Qual is a node of the qualifier AST.
type Qual interface {
	String() string
	isQual()
}

// QPath is an existence test [p].
type QPath struct{ P Path }

// QText is [text() = c].
type QText struct{ C string }

// QNot is [¬q].
type QNot struct{ Q Qual }

// QAnd is [q1 ∧ q2].
type QAnd struct{ L, R Qual }

// QOr is [q1 ∨ q2].
type QOr struct{ L, R Qual }

func (QPath) isQual() {}
func (QText) isQual() {}
func (QNot) isQual()  {}
func (QAnd) isQual()  {}
func (QOr) isQual()   {}

func (q QPath) String() string { return printQual(q) }
func (q QText) String() string { return printQual(q) }
func (q QNot) String() string  { return printQual(q) }
func (q QAnd) String() string  { return printQual(q) }
func (q QOr) String() string   { return printQual(q) }

func printQual(q Qual) string {
	pr := printer{buf: make([]byte, 0, 64)}
	pr.qual(q)
	return string(pr.buf)
}

// quoteLiteral prints a string literal so that the parser reads back exactly
// its bytes. The syntax has no escapes, so a literal is delimited by the quote
// it does not contain, and one holding both is split at its double quotes into
// XPath 1.0's concat("…",'"',"…").
func quoteLiteral(c string) string {
	if !strings.Contains(c, `"`) {
		return `"` + c + `"`
	}
	if !strings.Contains(c, "'") {
		return "'" + c + "'"
	}
	return `concat("` + strings.ReplaceAll(c, `"`, `",'"',"`) + `")`
}

// Size returns the number of AST nodes of p (|Q| in the complexity bounds).
func Size(p Path) int {
	switch p := p.(type) {
	case Empty, Label, Wildcard:
		return 1
	case Seq:
		return 1 + Size(p.L) + Size(p.R)
	case Desc:
		return 1 + Size(p.P)
	case Union:
		return 1 + Size(p.L) + Size(p.R)
	case Filter:
		return 1 + Size(p.P) + qualSize(p.Q)
	}
	return 1
}

func qualSize(q Qual) int {
	switch q := q.(type) {
	case QPath:
		return 1 + Size(q.P)
	case QText:
		return 1
	case QNot:
		return 1 + qualSize(q.Q)
	case QAnd:
		return 1 + qualSize(q.L) + qualSize(q.R)
	case QOr:
		return 1 + qualSize(q.L) + qualSize(q.R)
	}
	return 1
}

// Subpaths returns the sub-queries of p (including p itself) in postorder:
// every operand precedes the operator, the order used by XPathToEXp's
// dynamic program. Paths inside qualifiers are included.
func Subpaths(p Path) []Path {
	var out []Path
	var walkQ func(q Qual)
	var walk func(p Path)
	walk = func(p Path) {
		switch p := p.(type) {
		case Seq:
			walk(p.L)
			walk(p.R)
		case Desc:
			walk(p.P)
		case Union:
			walk(p.L)
			walk(p.R)
		case Filter:
			walk(p.P)
			walkQ(p.Q)
		}
		out = append(out, p)
	}
	walkQ = func(q Qual) {
		switch q := q.(type) {
		case QPath:
			walk(q.P)
		case QNot:
			walkQ(q.Q)
		case QAnd:
			walkQ(q.L)
			walkQ(q.R)
		case QOr:
			walkQ(q.L)
			walkQ(q.R)
		}
	}
	walk(p)
	return out
}

// MustParse parses the query or panics; intended for tests and examples.
func MustParse(s string) Path {
	p, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return p
}

var _ = strings.TrimSpace
