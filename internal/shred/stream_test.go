package shred

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"xpath2sql/internal/dtd"
	"xpath2sql/internal/rdb"
	"xpath2sql/internal/workload"
	"xpath2sql/internal/xmlgen"
	"xpath2sql/internal/xmltree"
)

// saveText renders the database in Save's deterministic text form, the
// byte-exact oracle for database equality.
func saveText(t testing.TB, db *rdb.DB) string {
	t.Helper()
	var b bytes.Buffer
	if err := db.Save(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestStreamShredMatchesShred: StreamShred over the serialized text produces
// the same database — relations, catalog with every node's type, intervals and
// fingerprint — as Shred over the parsed tree, across DTD shapes, worker counts
// and batch sizes, and each node's type reads the same through DB.Label.
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
				{Workers: 1, batchSize: 1},
				{Workers: 3, batchSize: 7},
			} {
				got, err := StreamShred(strings.NewReader(text), d, opts)
				if err != nil {
					t.Fatalf("%s seed %d %+v: %v", name, seed, opts, err)
				}
				if gotText := saveText(t, got); gotText != wantText {
					t.Fatalf("%s seed %d %+v: StreamShred database differs from Shred", name, seed, opts)
				}
				if got.NumNodes() != want.NumNodes() {
					t.Fatalf("%s seed %d %+v: %d nodes, Shred has %d", name, seed, opts, got.NumNodes(), want.NumNodes())
				}
				want.EachNode(func(id int) {
					gl, gok := got.Label(id)
					wl, wok := want.Label(id)
					if gl != wl || !gok || !wok {
						t.Fatalf("%s seed %d %+v: node %d labelled %q (%v), Shred %q (%v)", name, seed, opts, id, gl, gok, wl, wok)
					}
				})
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
// types, mismatched tags, truncation and trailing garbage — and a failure
// deep into a document, after batches were recycled.
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

	// A mismatched tag after 602 complete elements, so that many batches
	// were recycled before the error: the pass returns the error, every
	// goroutine it started exits, and the next pass, of good input, builds
	// Shred's database.
	var body strings.Builder
	body.WriteString("<dept>")
	for c := 0; c < 120; c++ {
		fmt.Fprintf(&body, "<course><cno>c%d</cno><title>t%d</title><prereq></prereq><takenBy></takenBy></course>", c, c%7)
	}
	good := body.String() + "</dept>"
	bad := body.String() + "<course><cno>x</cno></course><course></dept>"
	doc, err := xmltree.Parse(good)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Shred(doc, d)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []StreamOptions{{Workers: 1, batchSize: 1}, {Workers: 1, batchSize: 7}, {Workers: 3, batchSize: 1}, {Workers: 3, batchSize: 7}} {
		start := runtime.NumGoroutine()
		if _, err := StreamShred(strings.NewReader(bad), d, opts); err == nil || !strings.Contains(err.Error(), "mismatched end tag") {
			t.Errorf("%+v: a mismatched tag after 602 elements: %v", opts, err)
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > start; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%+v: %d goroutines after the failed pass, %d before", opts, runtime.NumGoroutine(), start)
			}
		}
		got, err := StreamShred(strings.NewReader(good), d, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if saveText(t, got) != saveText(t, want) {
			t.Errorf("%+v: the pass after a failed one differs from Shred", opts)
		}
	}
}

// TestStreamShredArenaEndsABatch: a batch whose text arena reaches
// streamArenaBytes is handed on before its record count is reached, which
// bounds each arena whatever the values' lengths.
func TestStreamShredArenaEndsABatch(t *testing.T) {
	var sizes []int
	p := &streamShredder{batch: &streamBatch{}, size: streamBatchSize, handoff: func(b *streamBatch) *streamBatch {
		sizes = append(sizes, len(b.recs))
		return &streamBatch{}
	}}
	v := make([]byte, streamArenaBytes/2)
	for id := 1; id <= 5; id++ {
		p.emit(0, id, 0, 0, v)
	}
	if !slices.Equal(sizes, []int{2, 2}) || len(p.batch.recs) != 1 {
		t.Fatalf("batches of %v records handed on, %d left; want [2 2] and 1", sizes, len(p.batch.recs))
	}
}

// abDTD declares two mutually recursive types, a and b: the labels of the
// dialect case table.
func abDTD() *dtd.DTD {
	d := dtd.New("a")
	d.SetProd("a", dtd.Star{Item: dtd.Name{Type: "b", Text: true}})
	d.SetProd("b", dtd.Star{Item: dtd.Name{Type: "a", Text: true}})
	return d
}

// sameOnBothPaths shreds text through xmltree.Parse and Shred and through
// StreamShred. Both must refuse it, or both accept it with the same
// database; it reports whether they accepted.
func sameOnBothPaths(t testing.TB, d *dtd.DTD, text string) bool {
	t.Helper()
	var tree string
	doc, terr := xmltree.Parse(text)
	if terr == nil {
		var db *rdb.DB
		if db, terr = Shred(doc, d); terr == nil {
			tree = saveText(t, db)
		}
	}
	sdb, serr := StreamShred(strings.NewReader(text), d, StreamOptions{Workers: 1})
	switch {
	case (terr == nil) != (serr == nil):
		t.Fatalf("%q: Parse+Shred err = %v, StreamShred err = %v", text, terr, serr)
	case serr == nil && saveText(t, sdb) != tree:
		t.Fatalf("%q: StreamShred database differs from Shred's", text)
	}
	return serr == nil
}

// readDialectCases reads the dialect case table of xmltree's tests.
func readDialectCases(t testing.TB) map[string]bool {
	t.Helper()
	data, err := os.ReadFile("../xmltree/testdata/dialect.txt")
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		verdict, lit, _ := strings.Cut(line, " ")
		doc, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("dialect.txt: bad line %q", line)
		}
		cases[doc] = verdict == "accept"
	}
	return cases
}

// TestStreamShredDialectCases runs the dialect case table through both
// shredding paths: each document gets its verdict on both.
func TestStreamShredDialectCases(t *testing.T) {
	d := abDTD()
	for doc, accept := range readDialectCases(t) {
		if got := sameOnBothPaths(t, d, doc); got != accept {
			t.Errorf("%q: accepted = %v, want %v", doc, got, accept)
		}
	}
}

// dialectAtoms are the pieces TestStreamShredMatchesShredOnAtoms builds
// documents from: tags, attributes, comments, PIs, DOCTYPE, entities, numeric
// character references and their pieces, and the bytes 0x85, 0xA0 and 0xC2.
var dialectAtoms = []string{
	"<a>", "</a>", "<b>", "</b>", "<a/>", "<b/>", `<a x="1">`, `<b y='&lt;' z/>`,
	"<!--", "-->", "<!-- c -->", "<!-->", "<?", "?>", "<?pi x?>", "<?>",
	"<!DOCTYPE a [<!ELEMENT a (b*)>]>", "<!DOCTYPE", "[", "]", ">", "<", "/>", "=", `"`,
	"&lt;", "&amp;", "&apos;", "&am", "p;", "&", "t", "v w",
	"&#60;", "&#x1F600;", "&#x85;", "&#0;", "&#xD800;", "&#", "x", "3C", "160", ";",
	" ", "\n", "\t", "\r", "\x85", "\xa0", "\xc2", "\xc2\xa0", "\v",
}

// TestStreamShredMatchesShredOnAtoms is a seeded differential search: no
// document of up to a dozen atoms is accepted by one shredding path and
// refused by the other, or built into different databases.
func TestStreamShredMatchesShredOnAtoms(t *testing.T) {
	d := abDTD()
	r := rand.New(rand.NewSource(1))
	accepted := 0
	for i := 0; i < 20000; i++ {
		var b strings.Builder
		wrap := r.Intn(2) == 0
		if wrap {
			b.WriteString("<a>")
		}
		for n := 1 + r.Intn(12); n > 0; n-- {
			b.WriteString(dialectAtoms[r.Intn(len(dialectAtoms))])
		}
		if wrap {
			b.WriteString("</a>")
		}
		if sameOnBothPaths(t, d, b.String()) {
			accepted++
		}
	}
	t.Logf("%d of 20000 documents accepted", accepted)
}

// FuzzStreamShredMatchesShred: StreamShred and Shred over xmltree.Parse
// build the same database from any input, or both refuse it.
func FuzzStreamShredMatchesShred(f *testing.F) {
	for doc := range readDialectCases(f) {
		f.Add([]byte(doc))
	}
	f.Add([]byte(`<?xml version="1.0"?><!DOCTYPE a [<!ELEMENT a (b*)>]><a id="1" flag> pre &lt;x&gt; ` +
		`<!-- gap --> mid<b>one &amp; two</b><b/><b kind='y'> <a>spaced</a> </b> tail &quot;q&apos;</a><!-- end -->`))
	d := abDTD()
	f.Fuzz(func(t *testing.T, src []byte) {
		sameOnBothPaths(t, d, string(src))
	})
}
