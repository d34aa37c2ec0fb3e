package dtd

import (
	"fmt"
	"strings"
	"unicode"
)

// Parse reads DTD text consisting of <!ELEMENT name content> declarations
// (comments and <!ATTLIST …> declarations are skipped; attributes are outside
// the paper's data model). The first declared element becomes the root type
// unless a line "<!-- root: name -->" appears.
//
// Content syntax: EMPTY, ANY, #PCDATA, names, ',' sequences, '|' choices and
// the occurrence operators '*', '+', '?'. '+' desugars to (α,α*), '?' to
// (α|ε) and ANY to (t1|t2|…)*, so the in-memory model uses only the paper's
// grammar α ::= ε | B | α,α | (α|α) | α*.
func Parse(input string) (*DTD, error) {
	d := &DTD{Prods: map[string]Content{}}
	rest := input
	var order []string
	root := ""
	for {
		i := strings.Index(rest, "<!")
		if i < 0 {
			break
		}
		// Root directive in a comment.
		if strings.HasPrefix(rest[i:], "<!--") {
			body, after, ok := strings.Cut(rest[i+4:], "-->")
			if !ok {
				return nil, perrf("dtd: unterminated comment")
			}
			if body = strings.TrimSpace(body); strings.HasPrefix(body, "root:") {
				root = strings.TrimSpace(strings.TrimPrefix(body, "root:"))
			}
			rest = after
			continue
		}
		rest = rest[i+2:]
		end := strings.IndexByte(rest, '>')
		if end < 0 {
			return nil, perrf("dtd: unterminated declaration")
		}
		decl := strings.TrimSpace(rest[:end])
		rest = rest[end+1:]
		switch {
		case strings.HasPrefix(decl, "ELEMENT"):
			name, content, err := parseElementDecl(strings.TrimSpace(strings.TrimPrefix(decl, "ELEMENT")))
			if err != nil {
				return nil, err
			}
			if _, dup := d.Prods[name]; dup {
				return nil, perrf("dtd: duplicate declaration of %q", name)
			}
			d.Prods[name] = content
			order = append(order, name)
		case strings.HasPrefix(decl, "ATTLIST"), strings.HasPrefix(decl, "ENTITY"), strings.HasPrefix(decl, "NOTATION"):
			// Ignored: outside the data model of §2.
		default:
			return nil, perrf("dtd: unsupported declaration <!%s>", decl)
		}
	}
	if len(order) == 0 {
		return nil, perrf("dtd: no element declarations")
	}
	if root == "" {
		root = order[0]
	}
	d.Root = root
	// Desugar ANY now that the full type list is known.
	for t, c := range d.Prods {
		d.Prods[t] = desugarAny(c, order)
	}
	if err := d.Check(); err != nil {
		return nil, err
	}
	return d, nil
}

// anyMarker is an internal placeholder for ANY until all types are known.
type anyMarker struct{}

func (anyMarker) contentNode()   {}
func (anyMarker) String() string { return "ANY" }

func desugarAny(c Content, types []string) Content {
	switch c := c.(type) {
	case anyMarker:
		items := make([]Content, len(types))
		for i, t := range types {
			items[i] = Name{Type: t}
		}
		if len(items) == 1 { // (t)* would parse back as t*, a different content
			return Star{Item: items[0]}
		}
		return Star{Item: Alt{Items: items}}
	case Seq:
		items := make([]Content, len(c.Items))
		for i, it := range c.Items {
			items[i] = desugarAny(it, types)
		}
		return Seq{Items: items}
	case Alt:
		items := make([]Content, len(c.Items))
		for i, it := range c.Items {
			items[i] = desugarAny(it, types)
		}
		return Alt{Items: items}
	case Star:
		return Star{Item: desugarAny(c.Item, types)}
	default:
		return c
	}
}

func parseElementDecl(s string) (string, Content, error) {
	i := 0
	for i < len(s) && !unicode.IsSpace(rune(s[i])) {
		i++
	}
	name := s[:i]
	if name == "" {
		return "", nil, perrf("dtd: ELEMENT declaration missing name")
	}
	if strings.ContainsAny(name, ",|()*+?") || name == "#PCDATA" || name == "EMPTY" || name == "ANY" {
		return "", nil, perrf("dtd: %q cannot name an element: a content model would not read it as one", name)
	}
	body := strings.TrimSpace(s[i:])
	switch body {
	case "EMPTY":
		return name, Epsilon{}, nil
	case "ANY":
		return name, anyMarker{}, nil
	}
	p := &contentParser{src: body}
	c, err := p.parseAlt()
	if err != nil {
		return "", nil, fmt.Errorf("dtd: element %s: %w", name, err)
	}
	p.skipSpace()
	if p.pos < len(p.src) {
		return "", nil, perrf("dtd: element %s: trailing content %q", name, p.src[p.pos:])
	}
	return name, c, nil
}

type contentParser struct {
	src string
	pos int
}

func (p *contentParser) skipSpace() {
	for p.pos < len(p.src) && unicode.IsSpace(rune(p.src[p.pos])) {
		p.pos++
	}
}

func (p *contentParser) peek() byte {
	if p.pos < len(p.src) {
		return p.src[p.pos]
	}
	return 0
}

// parseAlt ::= parseSeq ('|' parseSeq)*
func (p *contentParser) parseAlt() (Content, error) {
	first, err := p.parseSeq()
	if err != nil {
		return nil, err
	}
	items := []Content{first}
	for {
		p.skipSpace()
		if p.peek() != '|' {
			break
		}
		p.pos++
		next, err := p.parseSeq()
		if err != nil {
			return nil, err
		}
		items = append(items, next)
	}
	if len(items) == 1 {
		return items[0], nil
	}
	return Alt{Items: items}, nil
}

// parseSeq ::= parseUnary (',' parseUnary)*
func (p *contentParser) parseSeq() (Content, error) {
	first, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	items := []Content{first}
	for {
		p.skipSpace()
		if p.peek() != ',' {
			break
		}
		p.pos++
		next, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		items = append(items, next)
	}
	if len(items) == 1 {
		return items[0], nil
	}
	return Seq{Items: items}, nil
}

// parseUnary ::= atom ('*' | '+' | '?')?
func (p *contentParser) parseUnary() (Content, error) {
	atom, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	switch p.peek() {
	case '*':
		p.pos++
		return Star{Item: atom}, nil
	case '+':
		p.pos++
		return Seq{Items: []Content{atom, Star{Item: atom}}}, nil
	case '?':
		p.pos++
		return Alt{Items: []Content{atom, Epsilon{}}}, nil
	}
	return atom, nil
}

// parseAtom ::= '(' parseAlt ')' | '#PCDATA' | 'EMPTY' | 'ANY' | name
func (p *contentParser) parseAtom() (Content, error) {
	p.skipSpace()
	if p.peek() == '(' {
		p.pos++
		c, err := p.parseAlt()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.peek() != ')' {
			return nil, perrf("expected ')' at offset %d", p.pos)
		}
		p.pos++
		return c, nil
	}
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == ',' || c == '|' || c == ')' || c == '(' || c == '*' || c == '+' || c == '?' || unicode.IsSpace(rune(c)) {
			break
		}
		p.pos++
	}
	tok := p.src[start:p.pos]
	switch tok {
	case "":
		return nil, perrf("expected name at offset %d", start)
	case "#PCDATA":
		return Name{Text: true}, nil
	case "EMPTY":
		return Epsilon{}, nil
	case "ANY":
		return anyMarker{}, nil
	default:
		return Name{Type: tok}, nil
	}
}
