package xmltree

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"unicode"
	"unicode/utf8"
)

// TokenKind tells the tokens of Tokenizer.Next apart.
type TokenKind uint8

const (
	// StartElement is a start tag. A self-closing one ("<a/>") sets
	// Token.SelfClosing and is followed by no EndElement.
	StartElement TokenKind = iota + 1
	// EndElement is an end tag; its name matched the start tag's.
	EndElement
	// Text is one segment of character data between two markups inside the
	// root element, with the five predefined entities and the numeric
	// character references replaced.
	Text
)

// Token is one item of a document.
type Token struct {
	Kind        TokenKind
	SelfClosing bool
	// Data is a tag's element name or a Text token's unescaped segment. It
	// aliases the tokenizer's buffers and is valid until the next call of
	// Next.
	Data []byte
}

const windowSize = 64 << 10

// MaxDepth is the deepest element nesting the tokenizer reads, the root
// element at depth 1: far above any document the repository reads or
// generates (the deepest, a test's chain of 3 000), and low enough that the
// walks over a parsed tree that recurse — Serialize, validation, shredding —
// stay shallow. A deeper element is refused with a *DepthError before its
// name is read.
const MaxDepth = 10_000

// DepthError reports an element nested deeper than MaxDepth.
type DepthError struct {
	Offset int64 // of the start tag past the limit
}

func (e *DepthError) Error() string {
	return fmt.Sprintf("xmltree: offset %d: elements nested deeper than %d", e.Offset, MaxDepth)
}

// Tokenizer is the repository's one XML lexer, a pull tokenizer over a
// chunked window of its reader. Its dialect:
//
//   - one root element, with whitespace, comments, processing instructions
//     and DOCTYPE declarations (internal subset included) before and after
//     it, skipped; each is refused when unterminated;
//   - inside the root, elements, character data and comments; a comment
//     ends the text segment before it; a CDATA section, a processing
//     instruction or a DOCTYPE or other "<!" declaration there is refused
//     with an error naming it (an element name never begins with '!' or
//     '?');
//   - attributes, parsed and discarded: a value is quoted, a bare name is
//     allowed;
//   - the entities &lt; &gt; &amp; &quot; &apos; and the numeric character
//     references &#N; (decimal) and &#xH; (hexadecimal, either case of
//     digit), replaced within a text segment in one pass from left to
//     right; any other '&' stays literal, and so does a reference with no
//     digits, no ';', or the value 0, a surrogate or one above U+10FFFF;
//     a node's value is trimmed of Unicode whitespace after decoding, so
//     a reference to whitespace at either end of it (&#32;, &#xA0;) goes
//     like a literal one;
//   - whitespace is space, tab, CR and LF; a name runs up to whitespace,
//     '>', '/' or '='; a comment or PI terminator is searched after its
//     opener, so "<!-->" is unterminated;
//   - elements nest at most MaxDepth deep.
//
// End tags are checked against their start tags: tokens up to io.EOF form a
// well-formed document.
type Tokenizer struct {
	r    io.Reader
	buf  []byte // window of the input; buf[pos:] is unconsumed
	pos  int
	off  int64 // input offset of buf[0] (error reporting)
	eof  bool  // r is exhausted
	rerr error // non-EOF read error, surfaced on the next failure
	err  error // what Next returned last if not a token: sticky

	rooted bool   // the root's start tag was read
	names  []byte // the open elements' names, outermost first
	open   []int  // where each open element's name starts in names
	text   []byte // an unescaped text segment
}

// NewTokenizer returns a tokenizer reading r. A reader that reports its
// length (strings.Reader, bytes.Reader) gets a window no larger than it.
func NewTokenizer(r io.Reader) *Tokenizer {
	size := windowSize
	if l, ok := r.(interface{ Len() int }); ok && l.Len() < size {
		size = l.Len() + 1
	}
	return &Tokenizer{r: r, buf: make([]byte, 0, size)}
}

// Next returns the next token. After the root element's end it returns
// io.EOF if only misc follows; any error is returned again by later calls.
func (t *Tokenizer) Next() (Token, error) {
	if t.err != nil {
		return Token{}, t.err
	}
	if len(t.open) == 0 {
		if err := t.skipSpaceAndMisc(); err != nil {
			return Token{}, err
		}
		if !t.rooted {
			if !t.at('<') {
				return Token{}, t.errf("expected '<'")
			}
			t.rooted = true
			return t.startTag()
		}
		if t.need(1) || t.rerr != nil {
			return Token{}, t.errf("trailing content")
		}
		t.err = io.EOF
		return Token{}, io.EOF
	}
	for {
		switch t.need(2); {
		case t.avail() == 0:
			return Token{}, t.errf("unterminated element <%s>", t.names[t.open[len(t.open)-1]:])
		case t.buf[t.pos] != '<':
			return t.scanText(), nil
		case t.avail() > 1 && t.buf[t.pos+1] == '/':
			return t.endTag()
		case t.hasPrefix("<!--"):
			t.pos += 4
			if !t.skipPast([]byte("-->")) {
				return Token{}, t.errf("unterminated comment")
			}
		default:
			return t.startTag()
		}
	}
}

// errf makes the error Next returns from now on.
func (t *Tokenizer) errf(format string, args ...any) error {
	if t.rerr != nil {
		t.err = fmt.Errorf("xmltree: read: %w", t.rerr)
	} else {
		t.err = fmt.Errorf("xmltree: offset %d: %s", t.off+int64(t.pos), fmt.Sprintf(format, args...))
	}
	return t.err
}

func (t *Tokenizer) avail() int { return len(t.buf) - t.pos }

// refill compacts the window and reads more input. On any read error the
// tokenizer behaves as at EOF and remembers a non-EOF cause.
func (t *Tokenizer) refill() {
	if t.pos > 0 {
		t.off += int64(t.pos)
		t.buf = t.buf[:copy(t.buf, t.buf[t.pos:])]
		t.pos = 0
	}
	if len(t.buf) == cap(t.buf) {
		t.buf = slices.Grow(t.buf, len(t.buf)) // a token outgrew the window
	}
	n, err := t.r.Read(t.buf[len(t.buf):cap(t.buf)])
	t.buf = t.buf[:len(t.buf)+n]
	if err != nil {
		t.eof = true
		if err != io.EOF {
			t.rerr = err
		}
	}
}

// need makes at least n unconsumed bytes available, reading as required; it
// reports false when the input ends first.
func (t *Tokenizer) need(n int) bool {
	for t.avail() < n && !t.eof {
		t.refill()
	}
	return t.avail() >= n
}

// at reports whether the next byte is c.
func (t *Tokenizer) at(c byte) bool { return t.need(1) && t.buf[t.pos] == c }

func (t *Tokenizer) hasPrefix(s string) bool {
	return t.need(len(s)) && string(t.buf[t.pos:t.pos+len(s)]) == s
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func (t *Tokenizer) skipSpace() {
	for {
		for ; t.pos < len(t.buf); t.pos++ {
			if !isSpace(t.buf[t.pos]) {
				return
			}
		}
		if t.eof {
			return
		}
		t.refill()
	}
}

// skipPast advances past the next occurrence of term, which may span window
// boundaries; it reports false when the input ends first.
func (t *Tokenizer) skipPast(term []byte) bool {
	for {
		if i := bytes.Index(t.buf[t.pos:], term); i >= 0 {
			t.pos += i + len(term)
			return true
		}
		// Keep a potential partial match at the window edge.
		if keep := len(term) - 1; t.avail() > keep {
			t.pos = len(t.buf) - keep
		}
		if t.eof {
			t.pos = len(t.buf)
			return false
		}
		t.refill()
	}
}

// skipSpaceAndMisc skips whitespace, comments, PIs and DOCTYPE declarations.
func (t *Tokenizer) skipSpaceAndMisc() error {
	for {
		t.skipSpace()
		var ok bool
		switch {
		case t.hasPrefix("<?"):
			t.pos += 2
			ok = t.skipPast([]byte("?>"))
		case t.hasPrefix("<!--"):
			t.pos += 4
			ok = t.skipPast([]byte("-->"))
		case t.hasPrefix("<!DOCTYPE"):
			ok = t.skipDoctype()
		default:
			return nil
		}
		if !ok {
			return t.errf("unterminated comment, PI or DOCTYPE")
		}
	}
}

// skipDoctype consumes a DOCTYPE declaration up to its matching '>',
// accounting for an internal subset; it reports false when the input ends
// first.
func (t *Tokenizer) skipDoctype() bool {
	for depth := 0; t.need(1); t.pos++ {
		switch t.buf[t.pos] {
		case '[':
			depth++
		case ']':
			depth--
		case '>':
			if depth <= 0 {
				t.pos++
				return true
			}
		}
	}
	return false
}

// nameDelims marks the bytes that end a tag or attribute name.
var nameDelims = [256]bool{' ': true, '\t': true, '\n': true, '\r': true, '>': true, '/': true, '=': true}

// nameEnd returns where the tag or attribute name at pos ends. The window
// widens to hold a name whole.
func (t *Tokenizer) nameEnd() int {
	n := 0 // the name's bytes in the window so far
	for {
		for t.pos+n < len(t.buf) && !nameDelims[t.buf[t.pos+n]] {
			n++
		}
		if t.pos+n < len(t.buf) || t.eof {
			return t.pos + n
		}
		t.refill()
	}
}

// startTag consumes "<name ...>" or "<name .../>", pushing the name of an
// element that stays open. Attributes are parsed and discarded.
func (t *Tokenizer) startTag() (Token, error) {
	if len(t.open) == MaxDepth {
		t.err = &DepthError{Offset: t.off + int64(t.pos)}
		return Token{}, t.err
	}
	t.pos++ // '<'
	i := t.nameEnd()
	if i == t.pos {
		return Token{}, t.errf("expected element name")
	}
	if name := t.buf[t.pos:i]; name[0] == '!' || name[0] == '?' {
		return Token{}, t.errf("unsupported %s <%s", markupKind(name), name)
	}
	start := len(t.names)
	t.names = append(t.names, t.buf[t.pos:i]...)
	end := len(t.names)
	t.pos = i
	for {
		switch {
		case t.at('>'):
			t.pos++
			t.open = append(t.open, start)
			return Token{Kind: StartElement, Data: t.names[start:end]}, nil
		case t.hasPrefix("/>"):
			t.pos += 2
			t.names = t.names[:start] // Data keeps the name until the next push
			return Token{Kind: StartElement, SelfClosing: true, Data: t.names[start:end]}, nil
		case !t.need(1):
			return Token{}, t.errf("unterminated start tag <%s", t.names[start:end])
		case isSpace(t.buf[t.pos]):
			t.skipSpace()
			continue
		}
		i := t.nameEnd() // an attribute
		if i == t.pos {
			return Token{}, t.errf("malformed start tag <%s", t.names[start:end])
		}
		t.pos = i
		t.skipSpace()
		if t.at('=') { // a value, quoted
			t.pos++
			t.skipSpace()
			if !t.at('"') && !t.at('\'') {
				return Token{}, t.errf("expected quoted attribute value")
			}
			q := t.buf[t.pos]
			t.pos++
			if !t.skipPast([]byte{q}) {
				return Token{}, t.errf("unterminated attribute value")
			}
		}
	}
}

// markupKind names what a start tag whose name begins with '!' or '?' would
// be: markup the dialect does not read where an element may start.
func markupKind(name []byte) string {
	switch {
	case bytes.HasPrefix(name, []byte("![CDATA[")):
		return "CDATA section"
	case name[0] == '!':
		return "markup declaration"
	}
	return "processing instruction"
}

// endTag consumes "</name>" and pops the open element it must close. When
// the window holds the open element's name followed directly by '>', one
// compare closes it; any other form goes through nameEnd.
func (t *Tokenizer) endTag() (Token, error) {
	t.pos += 2 // "</"
	start := t.open[len(t.open)-1]
	name := t.names[start:]
	if w := t.buf[t.pos:]; len(w) > len(name) && w[len(name)] == '>' && bytes.Equal(w[:len(name)], name) {
		t.pos += len(name) + 1
	} else {
		i := t.nameEnd()
		got := t.buf[t.pos:i]
		match := bytes.Equal(got, name)
		if got = name; !match {
			got = bytes.Clone(t.buf[t.pos:i]) // for the error; the window may move
		}
		t.pos = i
		t.skipSpace()
		if !t.at('>') {
			return Token{}, t.errf("malformed end tag </%s", got)
		}
		t.pos++
		if !match {
			return Token{}, t.errf("mismatched end tag </%s> for <%s>", got, name)
		}
	}
	t.names = t.names[:start]
	t.open = t.open[:len(t.open)-1]
	return Token{Kind: EndElement, Data: name}, nil
}

// scanText consumes character data up to the next markup or the end of the
// input. The window widens to hold a segment whole.
func (t *Tokenizer) scanText() Token {
	n := 0 // the segment's bytes in the window so far
	for {
		if i := bytes.IndexByte(t.buf[t.pos+n:], '<'); i >= 0 {
			n += i
			break
		}
		n = t.avail()
		if t.eof {
			break
		}
		t.refill()
	}
	raw := t.buf[t.pos : t.pos+n]
	t.pos += n
	if bytes.IndexByte(raw, '&') >= 0 {
		t.text = appendUnescaped(t.text[:0], raw)
		raw = t.text
	}
	return Token{Kind: Text, Data: raw}
}

var entities = [...]struct {
	ref []byte
	c   byte
}{{[]byte("&lt;"), '<'}, {[]byte("&gt;"), '>'}, {[]byte("&amp;"), '&'}, {[]byte("&quot;"), '"'}, {[]byte("&apos;"), '\''}}

// appendUnescaped appends src to dst with the five predefined entities and
// the numeric character references replaced, in one pass from left to right;
// other entities stay literal.
func appendUnescaped(dst, src []byte) []byte {
	for {
		i := bytes.IndexByte(src, '&')
		if i < 0 {
			return append(dst, src...)
		}
		dst = append(dst, src[:i]...)
		src = src[i:]
		if r, n := charRef(src); n > 0 {
			dst = utf8.AppendRune(dst, r)
			src = src[n:]
			continue
		}
		n := 1
		c := byte('&')
		for _, e := range entities {
			if bytes.HasPrefix(src, e.ref) {
				n, c = len(e.ref), e.c
				break
			}
		}
		dst = append(dst, c)
		src = src[n:]
	}
}

// charRef decodes the numeric character reference src begins with, "&#"
// decimal digits ";" or "&#x" hexadecimal digits ";", returning its code
// point and length. n is 0 when src begins with none, or with one whose value
// is no character: 0, a surrogate, or above U+10FFFF.
func charRef(src []byte) (r rune, n int) {
	if len(src) < 4 || src[1] != '#' {
		return 0, 0
	}
	base, i := rune(10), 2
	if src[2] == 'x' {
		base, i = 16, 3
	}
	start := i
	for ; i < len(src); i++ {
		d := digit(src[i], base)
		if d < 0 {
			break
		}
		if r <= unicode.MaxRune { // past it the value only grows: stop before overflow
			r = r*base + d
		}
	}
	if i == start || i == len(src) || src[i] != ';' || r == 0 || r > unicode.MaxRune || 0xD800 <= r && r <= 0xDFFF {
		return 0, 0
	}
	return r, i + 1
}

// digit returns the value of c as a digit in base 10 or 16, or -1.
func digit(c byte, base rune) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case base == 16 && 'a' <= c && c <= 'f':
		return rune(c-'a') + 10
	case base == 16 && 'A' <= c && c <= 'F':
		return rune(c-'A') + 10
	}
	return -1
}
