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

func (Empty) String() string    { return "." }
func (l Label) String() string  { return l.Name }
func (Wildcard) String() string { return "*" }

func (s Seq) String() string {
	l := parenUnion(s.L)
	// p1//p2 prints without the redundant '/': Seq{p1, Desc{p2}}.
	if d, ok := s.R.(Desc); ok {
		return l + "//" + parenStep(d.P)
	}
	return l + "/" + parenStep(s.R)
}

func (d Desc) String() string { return "//" + parenStep(d.P) }

func (u Union) String() string { return u.L.String() + " | " + u.R.String() }

func (f Filter) String() string {
	// Wrap multi-step operands: a reparsed trailing qualifier binds to the
	// last step, so p1/p2[q] would change the AST.
	switch f.P.(type) {
	case Seq, Desc, Union:
		return "(" + f.P.String() + ")[" + f.Q.String() + "]"
	}
	return parenStep(f.P) + "[" + f.Q.String() + "]"
}

// parenUnion parenthesizes unions appearing as operands of '/' or '[...]'.
func parenUnion(p Path) string {
	if _, ok := p.(Union); ok {
		return "(" + p.String() + ")"
	}
	return p.String()
}

// parenStep parenthesizes paths that cannot follow a '/' or '//' unwrapped:
// unions and paths whose leftmost step is itself a descendant axis (which
// would print as an unparseable run of slashes).
func parenStep(p Path) string {
	if _, ok := p.(Union); ok {
		return "(" + p.String() + ")"
	}
	if leadsWithDesc(p) {
		return "(" + p.String() + ")"
	}
	return p.String()
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

func (q QPath) String() string { return q.P.String() }
func (q QText) String() string { return "text()=" + quoteLiteral(q.C) }
func (q QNot) String() string  { return "not(" + q.Q.String() + ")" }

func (q QAnd) String() string {
	return parenOr(q.L) + " and " + parenOr(q.R)
}

func (q QOr) String() string { return q.L.String() + " or " + q.R.String() }

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

func parenOr(q Qual) string {
	if _, ok := q.(QOr); ok {
		return "(" + q.String() + ")"
	}
	return q.String()
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
