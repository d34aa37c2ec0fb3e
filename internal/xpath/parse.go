package xpath

import (
	"errors"
	"fmt"
	"strings"
	"unicode"
)

// Parse parses the concrete syntax of the paper's XPath fragment.
//
//	path  := seq ('|' seq)*
//	seq   := ('//')? step (('/' | '//') step)*
//	step  := primary ('[' qual ']')*
//	prim  := '.' | '*' | NAME | '(' path ')'
//	qual  := and ('or' and)*
//	and   := unary ('and' unary)*
//	unary := 'not' '(' qual ')' | 'text' '()' '=' lit | '(' qual ')' | path
//	lit   := STRING | 'concat' '(' STRING (',' STRING)* ')'
//
// A STRING is delimited by either quote and has no escapes; concat is how a
// literal holding both quotes is written.
//
// A leading '//' applies the descendant-or-self axis to the context node, so
// "//B" parses to Desc{B} and "A//B" to Seq{A, Desc{B}}.
func Parse(input string) (Path, error) {
	p := &parser{src: input}
	path, err := p.parsePath()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos < len(p.src) {
		return nil, p.errf("unexpected trailing input %q", p.src[p.pos:])
	}
	return path, nil
}

type parser struct {
	src string
	pos int
}

// ErrParse is the sentinel every XPath syntax error wraps: callers match
// the family with errors.Is(err, xpath.ErrParse) while the message keeps
// the offset and diagnosis.
var ErrParse = errors.New("xpath: invalid query")

// parseError carries a diagnosis and unwraps to ErrParse.
type parseError struct{ msg string }

func (e *parseError) Error() string { return e.msg }
func (e *parseError) Unwrap() error { return ErrParse }

func (p *parser) errf(format string, args ...any) error {
	return &parseError{msg: fmt.Sprintf("xpath: offset %d: %s", p.pos, fmt.Sprintf(format, args...))}
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) && unicode.IsSpace(rune(p.src[p.pos])) {
		p.pos++
	}
}

func (p *parser) peekStr(s string) bool {
	p.skipSpace()
	return strings.HasPrefix(p.src[p.pos:], s)
}

func (p *parser) eat(s string) bool {
	if p.peekStr(s) {
		p.pos += len(s)
		return true
	}
	return false
}

func (p *parser) parsePath() (Path, error) {
	left, err := p.parseSeq()
	if err != nil {
		return nil, err
	}
	for {
		p.skipSpace()
		// '|' is union; make sure it is not '||' (not in the grammar).
		if !p.peekStr("|") {
			return left, nil
		}
		p.pos++
		right, err := p.parseSeq()
		if err != nil {
			return nil, err
		}
		left = Union{L: left, R: right}
	}
}

func (p *parser) parseSeq() (Path, error) {
	var left Path
	if p.eat("//") {
		step, err := p.parseStep()
		if err != nil {
			return nil, err
		}
		left = Desc{P: step}
	} else {
		step, err := p.parseStep()
		if err != nil {
			return nil, err
		}
		left = step
	}
	for {
		switch {
		case p.peekStr("//"):
			p.pos += 2
			step, err := p.parseStep()
			if err != nil {
				return nil, err
			}
			left = Seq{L: left, R: Desc{P: step}}
		case p.peekStr("/"):
			p.pos++
			step, err := p.parseStep()
			if err != nil {
				return nil, err
			}
			left = Seq{L: left, R: step}
		default:
			return left, nil
		}
	}
}

func (p *parser) parseStep() (Path, error) {
	prim, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.eat("[") {
		q, err := p.parseQual()
		if err != nil {
			return nil, err
		}
		if !p.eat("]") {
			return nil, p.errf("expected ']'")
		}
		prim = Filter{P: prim, Q: q}
	}
	return prim, nil
}

func (p *parser) parsePrimary() (Path, error) {
	p.skipSpace()
	switch {
	case p.eat("("):
		inner, err := p.parsePath()
		if err != nil {
			return nil, err
		}
		if !p.eat(")") {
			return nil, p.errf("expected ')'")
		}
		return inner, nil
	case p.eat("*"):
		return Wildcard{}, nil
	case p.eat("."):
		return Empty{}, nil
	}
	name := p.parseName()
	if name == "" {
		return nil, p.errf("expected step")
	}
	return Label{Name: name}, nil
}

func isNameChar(c byte) bool {
	return c == '_' || c == '-' || c == ':' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

func (p *parser) parseName() string {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && isNameChar(p.src[p.pos]) {
		p.pos++
	}
	return p.src[start:p.pos]
}

func (p *parser) parseQual() (Qual, error) {
	left, err := p.parseQualAnd()
	if err != nil {
		return nil, err
	}
	for p.eatWord("or") {
		right, err := p.parseQualAnd()
		if err != nil {
			return nil, err
		}
		left = QOr{L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseQualAnd() (Qual, error) {
	left, err := p.parseQualUnary()
	if err != nil {
		return nil, err
	}
	for p.eatWord("and") {
		right, err := p.parseQualUnary()
		if err != nil {
			return nil, err
		}
		left = QAnd{L: left, R: right}
	}
	return left, nil
}

// eatWord consumes the keyword only when followed by a non-name character,
// so a path step named "order" is not misread as the operator "or".
func (p *parser) eatWord(w string) bool {
	p.skipSpace()
	if !strings.HasPrefix(p.src[p.pos:], w) {
		return false
	}
	next := p.pos + len(w)
	if next < len(p.src) && isNameChar(p.src[next]) {
		return false
	}
	p.pos = next
	return true
}

func (p *parser) parseQualUnary() (Qual, error) {
	p.skipSpace()
	switch {
	case p.peekWord("not"):
		p.eatWord("not")
		if !p.eat("(") {
			return nil, p.errf("expected '(' after not")
		}
		inner, err := p.parseQual()
		if err != nil {
			return nil, err
		}
		if !p.eat(")") {
			return nil, p.errf("expected ')'")
		}
		return QNot{Q: inner}, nil
	case p.peekWord("text"):
		save := p.pos
		p.eatWord("text")
		if p.eat("(") && p.eat(")") {
			if !p.eat("=") {
				return nil, p.errf("expected '=' after text()")
			}
			c, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			return QText{C: c}, nil
		}
		p.pos = save
	case p.peekStr("("):
		// Could be a parenthesized qualifier or a parenthesized path; a
		// path is also a qualifier, so parse as qualifier first and fall
		// back to path parsing when that fails or when the group is
		// continued as a path (by '/', '//' or '[').
		save := p.pos
		p.eat("(")
		inner, err := p.parseQual()
		if err == nil && p.eat(")") {
			if !p.peekStr("/") && !p.peekStr("[") {
				return inner, nil
			}
		}
		p.pos = save
	}
	path, err := p.parseSeqOrUnionInQual()
	if err != nil {
		return nil, err
	}
	return QPath{P: path}, nil
}

// parseSeqOrUnionInQual parses a path inside a qualifier. '|' binds unions
// here too; 'and'/'or'/']'/')' terminate it.
func (p *parser) parseSeqOrUnionInQual() (Path, error) {
	left, err := p.parseSeq()
	if err != nil {
		return nil, err
	}
	for p.peekStr("|") {
		p.pos++
		right, err := p.parseSeq()
		if err != nil {
			return nil, err
		}
		left = Union{L: left, R: right}
	}
	return left, nil
}

func (p *parser) peekWord(w string) bool {
	p.skipSpace()
	if !strings.HasPrefix(p.src[p.pos:], w) {
		return false
	}
	next := p.pos + len(w)
	return next >= len(p.src) || !isNameChar(p.src[next])
}

func (p *parser) parseLiteral() (string, error) {
	if !p.eatWord("concat") {
		return p.parseString()
	}
	if !p.eat("(") {
		return "", p.errf("expected '(' after concat")
	}
	var lit strings.Builder
	for {
		s, err := p.parseString()
		if err != nil {
			return "", err
		}
		lit.WriteString(s)
		if !p.eat(",") {
			break
		}
	}
	if !p.eat(")") {
		return "", p.errf("expected ')' to close concat")
	}
	return lit.String(), nil
}

func (p *parser) parseString() (string, error) {
	p.skipSpace()
	if p.pos >= len(p.src) || (p.src[p.pos] != '\'' && p.src[p.pos] != '"') {
		return "", p.errf("expected string literal")
	}
	q := p.src[p.pos]
	p.pos++
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] != q {
		p.pos++
	}
	if p.pos >= len(p.src) {
		return "", p.errf("unterminated string literal")
	}
	s := p.src[start:p.pos]
	p.pos++
	return s, nil
}
