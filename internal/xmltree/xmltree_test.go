package xmltree

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"
	"unsafe"
)

func TestParseSimple(t *testing.T) {
	doc, err := Parse(`<a><b>hello</b><c/><b>world</b></a>`)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Root.Label != "a" {
		t.Fatalf("root = %q", doc.Root.Label)
	}
	if len(doc.Root.Children) != 3 {
		t.Fatalf("children = %d", len(doc.Root.Children))
	}
	if doc.Root.Children[0].Val != "hello" {
		t.Fatalf("b.Val = %q", doc.Root.Children[0].Val)
	}
	if doc.Size() != 4 {
		t.Fatalf("size = %d", doc.Size())
	}
}

const prologDoc = `<?xml version="1.0"?>
<!DOCTYPE a [ <!ELEMENT a (b*)> ]>
<!-- a comment -->
<a attr="x">
  <!-- inner comment -->
  <b k='v'>text &amp; more</b>
</a>`

func TestParseWithPrologAndComments(t *testing.T) {
	doc, err := Parse(prologDoc)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Root.Children[0].Val != "text & more" {
		t.Fatalf("Val = %q", doc.Root.Children[0].Val)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"<a>",
		"<a></b>",
		"<a><b></a></b>",
		"<a></a><b></b>",
		"<a", "text only",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q): expected error", bad)
		}
	}
}

func TestSerializeRoundtrip(t *testing.T) {
	src := `<dept><course><cno>cs11</cno><prereq><course><cno>cs66</cno><prereq/></course></prereq></course></dept>`
	doc, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	doc2, err := Parse(doc.Serialize())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if !treeEqual(doc.Root, doc2.Root) {
		t.Fatalf("roundtrip mismatch:\n%s\nvs\n%s", doc.Serialize(), doc2.Serialize())
	}
}

func treeEqual(a, b *Node) bool {
	if a.Label != b.Label || a.Val != b.Val || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !treeEqual(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

func TestPreorderIDs(t *testing.T) {
	doc, _ := Parse(`<a><b><c/></b><d/></a>`)
	want := []struct {
		label string
		id    NodeID
	}{{"a", 1}, {"b", 2}, {"c", 3}, {"d", 4}}
	for i, n := range doc.Nodes() {
		if n.Label != want[i].label || n.ID != want[i].id {
			t.Errorf("node %d = %s#%d, want %s#%d", i, n.Label, n.ID, want[i].label, want[i].id)
		}
	}
	if doc.Node(3).Label != "c" {
		t.Errorf("Node(3) = %v", doc.Node(3))
	}
	if doc.Node(0) != nil || doc.Node(5) != nil {
		t.Errorf("out-of-range Node lookups should be nil")
	}
}

func TestDepthHeightPath(t *testing.T) {
	doc, _ := Parse(`<a><b><c/></b></a>`)
	c := doc.Node(3)
	if c.Depth() != 2 {
		t.Errorf("Depth = %d", c.Depth())
	}
	if doc.Root.Height() != 3 {
		t.Errorf("Height = %d", doc.Root.Height())
	}
	if c.Path() != "a/b/c" {
		t.Errorf("Path = %q", c.Path())
	}
}

func TestDescendants(t *testing.T) {
	doc, _ := Parse(`<a><b><c/></b><d/></a>`)
	if got := len(doc.Root.Descendants()); got != 3 {
		t.Errorf("Descendants = %d", got)
	}
	if got := len(doc.Root.DescendantsOrSelf()); got != 4 {
		t.Errorf("DescendantsOrSelf = %d", got)
	}
}

func TestNodeSet(t *testing.T) {
	doc, _ := Parse(`<a><b/><c/></a>`)
	s := NodeSet{}
	s.Add(doc.Node(2))
	s.Add(doc.Node(3))
	s.Add(doc.Node(2)) // duplicate
	if len(s) != 2 {
		t.Fatalf("len = %d", len(s))
	}
	ids := s.IDs()
	if len(ids) != 2 || ids[0] != 2 || ids[1] != 3 {
		t.Fatalf("IDs = %v", ids)
	}
	t2 := NodeSet{}
	t2.Add(doc.Node(3))
	t2.Add(doc.Node(2))
	if !s.Equal(t2) {
		t.Fatalf("sets should be equal")
	}
	t2.Add(doc.Node(1))
	if s.Equal(t2) {
		t.Fatalf("sets should differ")
	}
}

// TestEscapeRoundtripProperty checks serialize∘parse preserves arbitrary
// text values.
func TestEscapeRoundtripProperty(t *testing.T) {
	f := func(val string) bool {
		// Strip control characters the XML dialect does not model.
		clean := strings.Map(func(r rune) rune {
			if r < 0x20 && r != '\t' {
				return -1
			}
			return r
		}, val)
		clean = strings.TrimSpace(clean)
		root := &Node{Label: "a", Val: clean}
		doc := NewDocument(root)
		doc2, err := Parse(doc.Serialize())
		if err != nil {
			return false
		}
		// Whitespace is trimmed/normalized by the parser; compare trimmed.
		return doc2.Root.Val == strings.TrimSpace(clean)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRenumberAfterEdit(t *testing.T) {
	doc, _ := Parse(`<a><b/></a>`)
	doc.Root.AddChild("c")
	doc.Renumber()
	if doc.Size() != 3 {
		t.Fatalf("size = %d", doc.Size())
	}
	if doc.Node(3).Label != "c" {
		t.Fatalf("Node(3) = %v", doc.Node(3))
	}
	if doc.Node(3).Parent != doc.Root {
		t.Fatalf("parent not fixed by Renumber")
	}
}

// dialectCase is one line of testdata/dialect.txt.
type dialectCase struct {
	accept bool
	doc    string
}

func readDialectCases(t testing.TB) []dialectCase {
	t.Helper()
	data, err := os.ReadFile("testdata/dialect.txt")
	if err != nil {
		t.Fatal(err)
	}
	var cases []dialectCase
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		verdict, lit, _ := strings.Cut(line, " ")
		doc, err := strconv.Unquote(lit)
		if err != nil || (verdict != "accept" && verdict != "refuse") {
			t.Fatalf("dialect.txt: bad line %q", line)
		}
		cases = append(cases, dialectCase{verdict == "accept", doc})
	}
	return cases
}

// TestParseDialect holds Parse to the verdicts of the dialect case table.
func TestParseDialect(t *testing.T) {
	for _, c := range readDialectCases(t) {
		if _, err := Parse(c.doc); (err == nil) != c.accept {
			t.Errorf("Parse(%q): err = %v, want accept = %v", c.doc, err, c.accept)
		}
	}
}

// tokens renders what a Tokenizer reads from r: every token, then the
// error that ended the stream.
func tokens(r io.Reader) string {
	var b strings.Builder
	tz := NewTokenizer(r)
	for {
		tok, err := tz.Next()
		if err != nil {
			fmt.Fprintf(&b, "%v", err)
			return b.String()
		}
		fmt.Fprintf(&b, "%d %v %q\n", tok.Kind, tok.SelfClosing, tok.Data)
	}
}

// TestTokenizerReadSizes: the tokens, text segments and errors do not
// depend on how the reader splits the input, so a name, a segment or an
// entity that straddles the window's edge reads as one.
func TestTokenizerReadSizes(t *testing.T) {
	docs := []string{prologDoc, strings.Repeat("<a>x &amp; y<!-- c --><b>&lt;</b>", 50) + strings.Repeat("</a>", 50)}
	for _, c := range readDialectCases(t) {
		docs = append(docs, c.doc)
	}
	for _, doc := range docs {
		whole := tokens(strings.NewReader(doc))
		for _, r := range []io.Reader{iotest.OneByteReader(strings.NewReader(doc)), iotest.HalfReader(strings.NewReader(doc))} {
			if got := tokens(r); got != whole {
				t.Errorf("%q: split reads give\n%s\nwhole reads\n%s", doc, got, whole)
			}
		}
	}
}

// endTagForms are end tags around the one-compare close of endTag, each
// with the tokens and the error a Tokenizer reads from it: the open
// element's name then '>' is the fast path; whitespace before '>', a longer
// or shorter name and the input ending inside the tag go the long way, with
// its messages.
var endTagForms = []struct{ doc, want string }{
	{"<a><b></b></a>", "1 false \"a\"\n1 false \"b\"\n2 false \"b\"\n2 false \"a\"\nEOF"},
	{"<a></a >", "1 false \"a\"\n2 false \"a\"\nEOF"},
	{"<a></a\n>", "1 false \"a\"\n2 false \"a\"\nEOF"},
	{"<course></cours>", "1 false \"course\"\nxmltree: offset 16: mismatched end tag </cours> for <course>"},
	{"<a></ab>", "1 false \"a\"\nxmltree: offset 8: mismatched end tag </ab> for <a>"},
	{"<ab></a>", "1 false \"ab\"\nxmltree: offset 8: mismatched end tag </a> for <ab>"},
	{"<a></a", "1 false \"a\"\nxmltree: offset 6: malformed end tag </a"},
	{"<a></", "1 false \"a\"\nxmltree: offset 5: malformed end tag </"},
	{"<a></a/>", "1 false \"a\"\nxmltree: offset 6: malformed end tag </a"},
}

// TestEndTagForms: each end tag form reads as it did before the fast path,
// whole and split one byte or half a read at a time, so the fast path meets
// every window boundary and falls back where the window ends early.
func TestEndTagForms(t *testing.T) {
	for _, c := range endTagForms {
		for _, r := range []io.Reader{strings.NewReader(c.doc), iotest.OneByteReader(strings.NewReader(c.doc)), iotest.HalfReader(strings.NewReader(c.doc))} {
			if got := tokens(r); got != c.want {
				t.Errorf("%q: read\n%s\nwant\n%s", c.doc, got, c.want)
			}
		}
	}
}

// TestParseInternsLabels: every node of one label shares one string, and no
// label points into the source text, even with more labels than the cache
// in front of the label map has slots.
func TestParseInternsLabels(t *testing.T) {
	var b strings.Builder
	b.WriteString("<r>")
	for round := 0; round < 3; round++ {
		for i := 0; i < 200; i++ {
			fmt.Fprintf(&b, "<l%d/>", i)
		}
	}
	b.WriteString("</r>")
	src := b.String()
	doc, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	first := map[string]*byte{}
	for _, n := range doc.Nodes() {
		p := unsafe.StringData(n.Label)
		if at := uintptr(unsafe.Pointer(p)); at >= lo && at < lo+uintptr(len(src)) {
			t.Fatalf("label %q points into the source", n.Label)
		}
		if q, ok := first[n.Label]; ok && q != p {
			t.Fatalf("label %q is two strings", n.Label)
		}
		first[n.Label] = p
	}
}

// FuzzParse: Parse never panics, and a document it accepts survives
// Serialize and a second Parse with its labels, values and shape.
func FuzzParse(f *testing.F) {
	for _, c := range readDialectCases(f) {
		f.Add([]byte(c.doc))
	}
	f.Add([]byte(prologDoc))
	f.Add([]byte(`<dept><course><cno>cs11</cno><prereq><course><cno>cs66</cno><prereq/></course></prereq></course></dept>`))
	f.Add([]byte(deep(100_000, "")))
	for _, c := range endTagForms {
		f.Add([]byte(c.doc))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		doc, err := Parse(string(src))
		if err != nil {
			return
		}
		text := doc.Serialize()
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("Serialize output refused: %v\n%q", err, text)
		}
		if !treeEqual(doc.Root, again.Root) {
			t.Fatalf("round trip changed the tree:\n%q\n%q", src, text)
		}
	})
}

// deep returns n nested <a> elements, the innermost holding inner.
func deep(n int, inner string) string {
	return strings.Repeat("<a>", n) + inner + strings.Repeat("</a>", n)
}

// TestDepthLimit: elements nest MaxDepth deep and no deeper — a start tag
// past the limit, self-closing or not, is refused with a *DepthError at its
// offset, however deep the input goes on.
func TestDepthLimit(t *testing.T) {
	doc, err := Parse(deep(MaxDepth, "x"))
	if err != nil {
		t.Fatalf("%d deep: %v", MaxDepth, err)
	}
	if h := doc.Size(); h != MaxDepth {
		t.Fatalf("%d deep: %d nodes", MaxDepth, h)
	}
	for _, src := range []string{deep(MaxDepth, "<b/>"), deep(MaxDepth+1, ""), deep(100_000, "")} {
		_, err := Parse(src)
		var de *DepthError
		if !errors.As(err, &de) {
			t.Fatalf("%d bytes: %v, want a *DepthError", len(src), err)
		}
		if want := int64(3 * MaxDepth); de.Offset != want {
			t.Errorf("%d bytes: refused at offset %d, want %d", len(src), de.Offset, want)
		}
	}
}

// TestCharacterReferences: a numeric character reference is its character,
// decimal or hexadecimal, astral planes included; a malformed one stays
// literal; and the value survives Serialize and a second Parse.
func TestCharacterReferences(t *testing.T) {
	for _, c := range []struct{ text, val string }{
		{"&#60;", "<"},
		{"&#x3C;&#x3c;&#0060;", "<<<"},
		{"&#x1F600;&#128512;", "😀😀"},
		{"&#x10FFFF;", "\U0010FFFF"},
		{"a&#x20;b&#9;c", "a b\tc"},
		{"&#38;lt;", "&lt;"},
		{"&amp;#60;", "&#60;"},
		{"&#32;x&#x85;", "x"},
		{"&#;&#x;&#60 &#x3G;&#X3C;&#3c;&#", "&#;&#x;&#60 &#x3G;&#X3C;&#3c;&#"},
		{"&#0;&#x0;&#xD800;&#57343;", "&#0;&#x0;&#xD800;&#57343;"},
		{"&#x110000;&#1114112;&#99999999999999999999;", "&#x110000;&#1114112;&#99999999999999999999;"},
	} {
		doc, err := Parse("<a>" + c.text + "</a>")
		if err != nil {
			t.Fatalf("%q: %v", c.text, err)
		}
		if doc.Root.Val != c.val {
			t.Errorf("%q reads as %q, want %q", c.text, doc.Root.Val, c.val)
		}
		again, err := Parse(doc.Serialize())
		if err != nil || !treeEqual(doc.Root, again.Root) {
			t.Errorf("%q: the round trip through %q gives %v, %v", c.text, doc.Serialize(), again, err)
		}
	}
}
