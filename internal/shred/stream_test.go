package shred

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"

	"xpath2sql/internal/dtd"
	"xpath2sql/internal/rdb"
	"xpath2sql/internal/workload"
	"xpath2sql/internal/xmlgen"
	"xpath2sql/internal/xmltree"
)

// saveText renders the database in Save's deterministic text form, the
// byte-exact oracle for database equality.
func saveText(t *testing.T, db *rdb.DB) string {
	t.Helper()
	var b bytes.Buffer
	if err := db.Save(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestStreamShredMatchesShred: StreamShred over the serialized text produces
// the same database — relations, catalog, intervals, fingerprint — as Shred
// over the parsed tree, across DTD shapes, worker counts and batch sizes.
func TestStreamShredMatchesShred(t *testing.T) {
	dtds := map[string]*dtd.DTD{
		"dept":  workload.Dept(),
		"cross": workload.Cross(),
		"gedml": workload.GedML(),
	}
	vf := func(typ string, r *rand.Rand) string {
		return fmt.Sprintf("%s &<>\"' %d", typ, r.Intn(9))
	}
	for name, d := range dtds {
		for seed := int64(1); seed <= 3; seed++ {
			doc, err := xmlgen.Generate(d, xmlgen.Options{XL: 7, XR: 3, Seed: seed, MaxNodes: 600, ValueFunc: vf})
			if err != nil {
				t.Fatal(err)
			}
			want, err := Shred(doc, d)
			if err != nil {
				t.Fatal(err)
			}
			wantText := saveText(t, want)
			text := doc.Serialize()
			for _, opts := range []StreamOptions{
				{},
				{Workers: 1, BatchSize: 1},
				{Workers: 3, BatchSize: 7},
			} {
				got, err := StreamShred(strings.NewReader(text), d, opts)
				if err != nil {
					t.Fatalf("%s seed %d %+v: %v", name, seed, opts, err)
				}
				if gotText := saveText(t, got); gotText != wantText {
					t.Fatalf("%s seed %d %+v: StreamShred database differs from Shred", name, seed, opts)
				}
				if !got.HasIntervals() || got.DTDFP != d.Fingerprint() {
					t.Fatalf("%s seed %d: stream DB missing interval encoding or fingerprint", name, seed)
				}
			}
		}
	}
}

// TestStreamShredSmallReads drives the parser one byte at a time, forcing a
// window-boundary decision between every pair of input bytes.
func TestStreamShredSmallReads(t *testing.T) {
	d := workload.Dept()
	doc, err := xmlgen.Generate(d, xmlgen.Options{XL: 6, XR: 3, Seed: 5, MaxNodes: 200})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Shred(doc, d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := StreamShred(iotest.OneByteReader(strings.NewReader(doc.Serialize())), d, StreamOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if saveText(t, got) != saveText(t, want) {
		t.Fatal("one-byte reads change the shredded database")
	}
}

// TestStreamShredDialect pins the restricted-dialect semantics against
// xmltree.Parse on a document exercising every construct the dialect allows:
// prolog misc, DOCTYPE with internal subset, attributes, self-closing tags,
// comments inside content, entities and mixed text around children.
func TestStreamShredDialect(t *testing.T) {
	d := dtd.New("a")
	d.SetProd("a", dtd.Star{Item: dtd.Name{Type: "b"}})
	d.SetProd("b", dtd.Name{Text: true})
	text := `<?xml version="1.0"?>
<!DOCTYPE a [ <!ELEMENT a (b*)> ]>
<!-- preamble -->
<a id="1" flag>
  pre &lt;x&gt; <!-- gap --> mid
  <b>one &amp; two</b>
  <b/>
  <b kind='y'>  spaced  </b>
  tail &quot;q&apos;
</a>
<!-- trailing misc -->`
	doc, err := xmltree.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Shred(doc, d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := StreamShred(strings.NewReader(text), d, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if saveText(t, got) != saveText(t, want) {
		t.Fatalf("dialect mismatch:\nstream:\n%s\ntree:\n%s", saveText(t, got), saveText(t, want))
	}
	// The mixed content concatenates across the comment and children, with
	// entities resolved and the whole trimmed.
	if v := got.Val(1); !strings.HasPrefix(v, "pre <x>  mid") || !strings.HasSuffix(v, `tail "q'`) {
		t.Fatalf("root value = %q", v)
	}
	if got.Val(2) != "one & two" || got.Val(3) != "" || got.Val(4) != "spaced" {
		t.Fatalf("child values = %q %q %q", got.Val(2), got.Val(3), got.Val(4))
	}
}

// TestStreamShredIntervalSemantics spot-checks the encoding on a document of
// known shape: begin = ID-1, end = begin + subtree size, level = depth.
func TestStreamShredIntervalSemantics(t *testing.T) {
	d := dtd.New("a")
	d.SetProd("a", dtd.Star{Item: dtd.Name{Type: "b"}})
	d.SetProd("b", dtd.Star{Item: dtd.Name{Type: "b"}})
	// IDs:         1  2    3    4     5
	text := `<a><b><b/><b/></b><b/></a>`
	db, err := StreamShred(strings.NewReader(text), d, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]rdb.NodeInterval{
		1: {Begin: 0, End: 5, Level: 0},
		2: {Begin: 1, End: 4, Level: 1},
		3: {Begin: 2, End: 3, Level: 2},
		4: {Begin: 3, End: 4, Level: 2},
		5: {Begin: 4, End: 5, Level: 1},
	}
	for id, w := range want {
		got, ok := db.Interval(id)
		if !ok || got != w {
			t.Errorf("interval(%d) = %+v ok=%v, want %+v", id, got, ok, w)
		}
	}
}

// TestStreamShredErrors covers the rejection paths: undeclared element
// types, mismatched tags, truncation and trailing garbage.
func TestStreamShredErrors(t *testing.T) {
	d := workload.Dept()
	cases := map[string]string{
		"undeclared":    `<dept><bogus/></dept>`,
		"mismatched":    `<dept><course></dept></course>`,
		"unterminated":  `<dept><course>`,
		"trailing":      `<dept/><dept/>`,
		"no root":       `   `,
		"text at start": `oops<dept/>`,
	}
	for name, text := range cases {
		if _, err := StreamShred(strings.NewReader(text), d, StreamOptions{}); err == nil {
			t.Errorf("%s: accepted %q", name, text)
		}
	}
	if _, err := StreamShred(iotest.TimeoutReader(iotest.OneByteReader(strings.NewReader("<dept><co"))), d, StreamOptions{}); err == nil {
		t.Error("read error swallowed")
	}
}
