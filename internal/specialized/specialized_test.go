package specialized

import (
	"slices"
	"testing"

	"xpath2sql/internal/core"
	"xpath2sql/internal/difftest"
	"xpath2sql/internal/dtd"
	"xpath2sql/internal/xmlgen"
	"xpath2sql/internal/xmltree"
	"xpath2sql/internal/xpath"
)

// bookstore returns the classic specialization example: a "section" element
// follows a different production at the top level (sections contain
// sections and books) than inside a book (sections contain only titles).
// The surface vocabulary is {store, section, book, title}; the specialized
// types split section into topSection and bookSection.
func bookstore(t *testing.T) *DTD {
	t.Helper()
	inner, err := dtd.Parse(`
<!-- root: store -->
<!ELEMENT store (topSection*)>
<!ELEMENT topSection (topSection*, book*)>
<!ELEMENT book (title, bookSection*)>
<!ELEMENT bookSection (title)>
<!ELEMENT title (#PCDATA)>
`)
	if err != nil {
		t.Fatal(err)
	}
	s := &DTD{
		Inner: inner,
		Map: map[string]string{
			"topSection":  "section",
			"bookSection": "section",
		},
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	return s
}

const bookstoreDoc = `<store>
  <section>
    <section>
      <book><title>a</title>
        <section><title>ch1</title></section>
        <section><title>ch2</title></section>
      </book>
    </section>
    <book><title>b</title></book>
  </section>
</store>`

func TestInferAssignsByContext(t *testing.T) {
	s := bookstore(t)
	doc, err := xmltree.Parse(bookstoreDoc)
	if err != nil {
		t.Fatal(err)
	}
	types, err := s.Infer(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range doc.Nodes() {
		spec := types[n.ID]
		if s.LabelOf(spec) != n.Label {
			t.Fatalf("node %s assigned %s presenting %s", n, spec, s.LabelOf(spec))
		}
		if n.Label == "section" {
			want := "topSection"
			if n.Parent != nil && n.Parent.Label == "book" {
				want = "bookSection"
			}
			if spec != want {
				t.Errorf("section %s under %s: assigned %s, want %s", n, n.Parent.Label, spec, want)
			}
		}
	}
}

func TestValidateRejectsContextViolations(t *testing.T) {
	s := bookstore(t)
	// A section inside a book may not contain a book.
	bad, _ := xmltree.Parse(`<store><section><book><title>x</title>
<section><title>y</title><book><title>z</title></book></section></book></section></store>`)
	if err := s.Validate(bad); err == nil {
		t.Fatal("context violation accepted")
	}
	// And a top-level section may not contain a bare title.
	bad2, _ := xmltree.Parse(`<store><section><title>t</title></section></store>`)
	if err := s.Validate(bad2); err == nil {
		t.Fatal("context violation accepted")
	}
	good, _ := xmltree.Parse(bookstoreDoc)
	if err := s.Validate(good); err != nil {
		t.Fatalf("valid doc rejected: %v", err)
	}
}

func TestRewriteQuery(t *testing.T) {
	s := bookstore(t)
	q := xpath.MustParse("store/section")
	rw := RewriteQuery(q, s)
	// section expands to (bookSection | topSection).
	str := rw.String()
	if str != "store/(bookSection | topSection)" {
		t.Fatalf("rewritten = %q", str)
	}
	// Qualifiers expand too.
	q2 := xpath.MustParse("store[section]")
	if got := RewriteQuery(q2, s).String(); got != "store[bookSection | topSection]" {
		t.Fatalf("rewritten = %q", got)
	}
}

// TestSpecializedPipeline: the full pipeline over the specialized DTD must
// agree with the native oracle on the surface document — for label queries
// that cross specialization contexts.
func TestSpecializedPipeline(t *testing.T) {
	s := bookstore(t)
	doc, err := xmltree.Parse(bookstoreDoc)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Shred(doc, s)
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"store//section",
		"store//book/section",
		"store/section/section",
		"store//section/title",
		"//section[title]",
		"store//section[not(book)]",
		"//book[section]",
		"store//title",
	}
	for _, qs := range queries {
		q := xpath.MustParse(qs)
		want := difftest.Oracle(q, doc)
		for _, strat := range []core.Strategy{core.StrategyCycleEX, core.StrategyCycleE, core.StrategySQLGenR} {
			opts := core.DefaultOptions()
			opts.Strategy = strat
			res, err := Translate(q, s, opts)
			if err != nil {
				t.Fatalf("[%v] %s: %v", strat, qs, err)
			}
			got, _, err := res.Execute(db)
			if err != nil {
				t.Fatalf("[%v] %s: %v", strat, qs, err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("[%v] %s: got %v, want %v", strat, qs, got, want)
			}
		}
	}
}

// TestSpecializedRandom: generate documents from the inner DTD, relabel
// through g, and check pipeline-vs-oracle agreement on random queries over
// the surface vocabulary.
func TestSpecializedRandom(t *testing.T) {
	s := bookstore(t)
	surface := []string{"store", "section", "book", "title"}
	r := difftest.Seed(99)
	for seed := int64(0); seed < 4; seed++ {
		inner, err := xmlgen.Generate(s.Inner, xmlgen.Options{XL: 6, XR: 3, Seed: seed, MaxNodes: 200})
		if err != nil {
			t.Fatal(err)
		}
		// Relabel specialized types to their surface names.
		for _, n := range inner.Nodes() {
			n.Label = s.LabelOf(n.Label)
		}
		doc := inner
		if err := s.Validate(doc); err != nil {
			t.Fatalf("relabelled doc invalid: %v", err)
		}
		db, err := Shred(doc, s)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 15; i++ {
			q := difftest.Query(r, surface, 3)
			want := difftest.Oracle(q, doc)
			res, err := Translate(q, s, core.DefaultOptions())
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			got, _, err := res.Execute(db)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d query %s: got %v, want %v", seed, q, got, want)
			}
		}
	}
}

func TestCheckErrors(t *testing.T) {
	if err := (&DTD{}).Check(); err == nil {
		t.Fatal("nil inner accepted")
	}
	inner, _ := dtd.Parse(`<!ELEMENT a (#PCDATA)>`)
	s := &DTD{Inner: inner, Map: map[string]string{"ghost": "x"}}
	if err := s.Check(); err == nil {
		t.Fatal("g on undeclared type accepted")
	}
	s2 := &DTD{Inner: inner, Map: map[string]string{"a": ""}}
	if err := s2.Check(); err == nil {
		t.Fatal("empty g target accepted")
	}
}

func TestInferErrors(t *testing.T) {
	s := bookstore(t)
	wrongRoot, _ := xmltree.Parse(`<book><title>x</title></book>`)
	if _, err := s.Infer(wrongRoot); err == nil {
		t.Fatal("wrong root accepted")
	}
	unknown, _ := xmltree.Parse(`<store><zzz/></store>`)
	if _, err := s.Infer(unknown); err == nil {
		t.Fatal("unknown label accepted")
	}
}
