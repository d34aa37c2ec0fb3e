package rdb

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

func TestSaveLoadRoundtrip(t *testing.T) {
	db := NewDB()
	db.InsertLabeled("R_a", "a", 0, 1, "root value")
	db.InsertLabeled("R_b", "b", 1, 2, `tricky "quoted" \ value`)
	db.InsertLabeled("R_b", "b", 1, 3, "")
	db.Rel("R_empty") // declared but empty
	var sb strings.Builder
	if err := db.Save(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := Load(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("Load: %v\ntext:\n%s", err, sb.String())
	}
	if len(got.Rels) != len(db.Rels) {
		t.Fatalf("relations: %d vs %d", len(got.Rels), len(db.Rels))
	}
	for name, rel := range db.Rels {
		grel, ok := got.Rels[name]
		if !ok || grel.Len() != rel.Len() {
			t.Fatalf("relation %s mismatch", name)
		}
		for _, tp := range rel.Tuples() {
			if !grel.Has(tp.F, tp.T) {
				t.Fatalf("missing tuple %+v", tp)
			}
		}
	}
	if label, _ := got.Label(2); got.Val(2) != db.Val(2) || label != "b" || got.Parent(3) != 1 {
		t.Fatalf("catalog mismatch: %q %q %d", got.Val(2), label, got.Parent(3))
	}
	// Determinism: saving again produces identical text.
	var sb2 strings.Builder
	if err := got.Save(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb.String() != sb2.String() {
		t.Fatalf("save not deterministic:\n%s\nvs\n%s", sb.String(), sb2.String())
	}
}

// saveReference is the writer Save replaced, kept as its specification: each
// record formatted by fmt, each value quoted by strconv.Quote, a relation's
// tuples copied out as strings and sorted. Save must write its bytes.
func saveReference(db *DB, w io.Writer) error {
	bw := bufio.NewWriter(w)
	var names []string
	for name := range db.Rels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rel := db.Rels[name]
		tuples := append([]Tuple(nil), rel.Tuples()...)
		sort.Slice(tuples, func(i, j int) bool {
			if tuples[i].F != tuples[j].F {
				return tuples[i].F < tuples[j].F
			}
			return tuples[i].T < tuples[j].T
		})
		for _, t := range tuples {
			if _, err := fmt.Fprintf(bw, "R %s %d %d %s\n", name, t.F, t.T, strconv.Quote(t.V)); err != nil {
				return err
			}
		}
		if len(tuples) == 0 {
			if _, err := fmt.Fprintf(bw, "E %s\n", name); err != nil {
				return err
			}
		}
	}
	st := db.nodes.Load()
	var err error
	st.tab.eachNode(func(id int, parent, val, typ int32) {
		if err == nil {
			_, err = fmt.Fprintf(bw, "N %d %d %s %s\n",
				id, parent, strconv.Quote(db.Syms.Str(typ)), strconv.Quote(db.Syms.Str(val)))
		}
	})
	if err != nil {
		return err
	}
	if st.labelled {
		n := int64(st.tab.labels)
		dense := true
		st.tab.eachLabel(func(_ int, iv NodeInterval) { dense = dense && 0 <= iv.Begin && iv.Begin < n })
		var begins []int64
		if !dense {
			begins = make([]int64, 0, n)
			st.tab.eachLabel(func(_ int, iv NodeInterval) { begins = append(begins, iv.Begin) })
			slices.Sort(begins)
		}
		rank := func(label int64) int64 {
			if dense {
				return min(max(label, 0), n)
			}
			i, _ := slices.BinarySearch(begins, label)
			return int64(i)
		}
		st.tab.eachLabel(func(id int, iv NodeInterval) {
			if err == nil {
				_, err = fmt.Fprintf(bw, "O %d %d %d %d\n", id, rank(iv.Begin), rank(iv.End), iv.Level)
			}
		})
		if err != nil {
			return err
		}
	}
	if db.DTDFP != "" {
		if _, err := fmt.Fprintf(bw, "D %s\n", db.DTDFP); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// oddValues are the pieces the property tests build values from: quotes,
// backslashes, control characters, invalid UTF-8, runes strconv.Quote escapes
// (U+0085, U+2028) and ones it keeps (U+FFFD), text that looks like a record
// or a comment, and plain words.
var oddValues = []string{
	`"`, `\`, "\n", "\t", "\r", "\x00", "\xff", "\xc3(", "\uFFFD", "\u0085", "\u2028", " ",
	"plain", "ünïcode", "日本語", "€", `\"escaped\"`, "line1\nline2", `trailing\`, "",
	"R 1 2", "# not a comment", "`raw`",
}

// oddTypes are element types Save must quote: none holds a space, which ends
// a type in an N record.
var oddTypes = []string{"t", "t\x00", `t"`, "t\xff", "t\u2028", `t\`, "t\u0085"}

// randomDB builds a database of arbitrary relation shapes — empty and
// declared-only relations, tombstoned rows (which Save must omit) — whose
// values and element types are drawn from oddValues and oddTypes, with a dense
// interval encoding, a relabelled one (gaps between the begins) or none. A
// value of long bytes, when long > 0, is stored in a relation of its own.
func randomDB(seed int64, long int) *DB {
	rng := rand.New(rand.NewSource(seed))
	db := NewDB()
	nRels := rng.Intn(5)
	for r := 0; r < nRels; r++ {
		name := fmt.Sprintf("R_t%d", r)
		typ := fmt.Sprintf("t%d", r)
		if rng.Intn(3) == 0 {
			typ = oddTypes[rng.Intn(len(oddTypes))]
		}
		n := rng.Intn(6) // 0: declared but empty
		if n == 0 {
			db.Rel(name)
			continue
		}
		for i := 0; i < n; i++ {
			v := oddValues[rng.Intn(len(oddValues))] + oddValues[rng.Intn(len(oddValues))]
			id := r*100 + i + 1
			db.InsertLabeled(name, typ, rng.Intn(id), id, v)
		}
		// Occasionally tombstone a row: Save writes live tuples only.
		if rel := db.Rel(name); rng.Intn(2) == 0 && rel.Len() > 1 {
			tp := rel.Tuples()[0]
			db.Delete(name, tp.F, tp.T)
		}
	}
	if long > 0 {
		var b strings.Builder
		for b.Len() < long {
			b.WriteString(oddValues[rng.Intn(len(oddValues))])
		}
		db.InsertLabeled("R_long", "long", 0, 1000, b.String())
	}
	switch rng.Intn(3) {
	case 0:
		db.RebuildIntervals()
	case 1:
		b, k := db.NewIntervalBuilder(), int64(0)
		db.EachNode(func(id int) {
			begin := 5*k + 2 + rng.Int63n(3)
			b.Set(id, NodeInterval{Begin: begin, End: begin + rng.Int63n(40), Level: rng.Int31n(5)})
			k++
		})
		b.Adopt()
	}
	if rng.Intn(2) == 0 {
		db.DTDFP = fmt.Sprintf("fp%d", seed)
	}
	return db
}

// TestSaveLoadProperty round-trips randomly generated databases (randomDB),
// one of them holding a 5 MiB value: Save must write the bytes saveReference
// writes, and the round trip must reproduce them on a second Save.
func TestSaveLoadProperty(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		long := 0
		if seed == 7 {
			long = 5 << 20
		}
		db := randomDB(seed, long)
		var sb, ref strings.Builder
		if err := db.Save(&sb); err != nil {
			t.Fatalf("seed %d: Save: %v", seed, err)
		}
		if err := saveReference(db, &ref); err != nil {
			t.Fatal(err)
		}
		if sb.String() != ref.String() {
			t.Fatalf("seed %d: Save differs from the reference writer:\n%.2000q\nvs\n%.2000q", seed, sb.String(), ref.String())
		}
		got, err := Load(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("seed %d: Load: %v\ntext:\n%.2000s", seed, err, sb.String())
		}
		var sb2 strings.Builder
		if err := got.Save(&sb2); err != nil {
			t.Fatalf("seed %d: re-Save: %v", seed, err)
		}
		if sb.String() != sb2.String() {
			t.Fatalf("seed %d: round trip not identical:\n%.2000q\nvs\n%.2000q", seed, sb.String(), sb2.String())
		}
		if got.NumNodes() != db.NumNodes() || got.IntervalCount() != db.IntervalCount() || got.DTDFP != db.DTDFP {
			t.Fatalf("seed %d: %d nodes, %d intervals, fingerprint %q loaded, want %d, %d, %q",
				seed, got.NumNodes(), got.IntervalCount(), got.DTDFP, db.NumNodes(), db.IntervalCount(), db.DTDFP)
		}
		db.EachNode(func(id int) {
			gl, _ := got.Label(id)
			wl, _ := db.Label(id)
			if got.Val(id) != db.Val(id) || gl != wl || got.Parent(id) != db.Parent(id) {
				t.Fatalf("seed %d: node %d loaded as (%q, %q, %d), want (%q, %q, %d)",
					seed, id, got.Val(id), gl, got.Parent(id), db.Val(id), wl, db.Parent(id))
			}
		})
		for name, rel := range db.Rels {
			grel, ok := got.Rels[name]
			if !ok {
				t.Fatalf("seed %d: relation %s lost", seed, name)
			}
			if grel.Len() != rel.Len() {
				t.Fatalf("seed %d: relation %s: %d tuples loaded, want %d", seed, name, grel.Len(), rel.Len())
			}
			for _, tp := range rel.Tuples() {
				if !grel.Has(tp.F, tp.T) {
					t.Fatalf("seed %d: relation %s lost tuple %+v", seed, name, tp)
				}
			}
		}
	}
}

// TestImageCodecLongLine: a value of 5 MiB, longer than any line buffer,
// saves and loads back, and the lines after it keep their numbers in
// errors. A line-scanning reader that capped a line at 4 MiB refused the
// image Save had written.
func TestImageCodecLongLine(t *testing.T) {
	long := strings.Repeat("x\"y", 5<<20/3)
	db := NewDB()
	db.InsertLabeled("R_a", "a", 0, 1, "")
	db.InsertLabeled("R_b", "b", 1, 2, long)
	db.RebuildIntervals()
	var sb strings.Builder
	if err := db.Save(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := Load(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("Load refused a saved %d-byte value: %v", len(long), err)
	}
	if got.Val(2) != long {
		t.Fatalf("the long value loaded as %d bytes, want %d", len(got.Val(2)), len(long))
	}
	var again strings.Builder
	if err := got.Save(&again); err != nil || again.String() != sb.String() {
		t.Fatalf("the long value's image does not round-trip: %v", err)
	}
	img := "R R_b 1 2 " + strconv.Quote(long) + "\r\n# note\nR R_b x 3 \"\"\n"
	if _, err := Load(strings.NewReader(img)); err == nil || !strings.Contains(err.Error(), "line 3:") {
		t.Fatalf("a bad record after a long line: %v, want an error naming line 3", err)
	}
}

// TestLoadSkipsComments: snapshot files written by the document store prefix
// the Save body with a '#' header line; Load must skip it (and blank lines)
// without disturbing line numbering in errors.
func TestLoadSkipsComments(t *testing.T) {
	text := "# xpath2sql-snapshot v1 seq=3 lsn=9 next=42\n\nR R_a 0 1 \"v\"\nN 1 0 \"a\" \"v\"\n"
	db, err := Load(strings.NewReader(text))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if db.NumNodes() != 1 || !db.Rel("R_a").Has(0, 1) {
		t.Fatalf("header skip lost data: %d nodes", db.NumNodes())
	}
}

// TestLoadErrorLineNumbers: a corrupted line must be reported with its
// 1-based line number, counting skipped comment and blank lines.
func TestLoadErrorLineNumbers(t *testing.T) {
	cases := []struct {
		text string
		line string
	}{
		{"R R_a 0 1 \"v\"\nR R_a bad 2 \"v\"\n", "line 2"},
		{"# header\n\nR R_a 0 1 \"v\"\nN 1 0 \"a\" unquoted\n", "line 4"},
		{"Z mystery\n", "line 1"},
	}
	for _, c := range cases {
		_, err := Load(strings.NewReader(c.text))
		if err == nil {
			t.Errorf("Load(%q): expected error", c.text)
			continue
		}
		if !strings.Contains(err.Error(), c.line) {
			t.Errorf("Load(%q): error %q does not name %s", c.text, err, c.line)
		}
	}
}

// TestLoadTypeWithSpace: an N record's element type is a quoted string,
// which may hold a space. Written with an escape, it loads; Save writes it
// back with the space itself, and that image loads to the same database.
// Other types with an escape or a raw quote read as they did.
func TestLoadTypeWithSpace(t *testing.T) {
	for img, want := range map[string]string{
		"N 1 0 \"a\\x20b\" \"\"\n": "a b",
		"N 1 0 \"a b\" \"v w\"\n":  "a b",
		"N 1 0 `a b` \"\"\n":       "a b",
		"N 1 0 \"a\\\" b\" \"\"\n": `a" b`,
		"N 1 0 \"t\\xff\" \"\"\n":  "t\xff",
	} {
		db, err := Load(strings.NewReader(img))
		if err != nil {
			t.Fatalf("Load(%q): %v", img, err)
		}
		var first strings.Builder
		if err := db.Save(&first); err != nil {
			t.Fatal(err)
		}
		again, err := Load(strings.NewReader(first.String()))
		if err != nil {
			t.Fatalf("Load refused what Save wrote of %q: %v\n%s", img, err, first.String())
		}
		var second strings.Builder
		if err := again.Save(&second); err != nil {
			t.Fatal(err)
		}
		if typ, _ := again.Label(1); typ != want || second.String() != first.String() {
			t.Errorf("Load(%q) reloads as type %q, image\n%s; want %q, image\n%s", img, typ, second.String(), want, first.String())
		}
	}
	for _, bad := range []string{"N 1 0 \"a b\"\n", "N 1 0 \"a b\"\"\"\n", "N 1 0 \"a b \"\"\n"} {
		if _, err := Load(strings.NewReader(bad)); err == nil {
			t.Errorf("Load(%q): expected an error", bad)
		}
	}
}

func TestLoadErrors(t *testing.T) {
	for _, bad := range []string{
		"X what is this",
		"R onlyname",
		"R rel notanumber 2 \"v\"",
		"R rel 1 2 unquoted",
		"N 1",
		"N x 0 \"a\" \"v\"",
	} {
		if _, err := Load(strings.NewReader(bad)); err == nil {
			t.Errorf("Load(%q): expected error", bad)
		}
	}
}

func TestLoadEmpty(t *testing.T) {
	db, err := Load(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if db.NumNodes() != 0 {
		t.Fatalf("nodes = %d", db.NumNodes())
	}
}

// TestLoadRefusesACorruptCatalog: an image whose catalog runs in a cycle of
// parents — on which a walk to the root, such as an answer's label path, never
// returns — or whose records hold a node ID the database cannot hold (a
// negative one, or one past 2³¹−1, which would wrap to another node) is
// refused with an error naming the node.
func TestLoadRefusesACorruptCatalog(t *testing.T) {
	for _, c := range []struct{ name, img, node string }{
		{"two-node cycle", "N 5 6 \"a\" \"\"\nN 6 5 \"a\" \"\"\n", "node 5"},
		{"self parent", "N 1 0 \"a\" \"\"\nN 2 2 \"b\" \"\"\n", "node 2"},
		{"cycle below a root", "N 1 0 \"a\" \"\"\nN 2 4 \"b\" \"\"\nN 3 2 \"b\" \"\"\nN 4 3 \"b\" \"\"\n", "node 2"},
		{"negative N id", "N -1 0 \"a\" \"\"\n", "-1"},
		{"negative parent", "N 1 -3 \"a\" \"\"\n", "-3"},
		{"zero N id", "N 0 0 \"a\" \"\"\n", "node ID 0"},
		{"N id past 2^31-1", "N 4294967297 0 \"a\" \"\"\n", "4294967297"},
		{"parent past 2^31-1", "N 1 2147483648 \"a\" \"\"\n", "2147483648"},
		{"negative F", "R R_a -1 1 \"\"\n", "-1"},
		{"F past 2^31-1", "R R_a 4294967296 1 \"\"\n", "4294967296"},
		{"negative T", "R R_a 0 -7 \"\"\n", "-7"},
		{"T past 2^31-1", "R R_a 0 2147483649 \"\"\n", "2147483649"},
		{"negative O id", "O -2 0 1 0\n", "-2"},
		{"O id past 2^31-1", "O 2147483648 0 1 0\n", "2147483648"},
	} {
		if _, err := Load(strings.NewReader(c.img)); err == nil {
			t.Errorf("%s: Load accepted\n%s", c.name, c.img)
		} else if !strings.Contains(err.Error(), c.node) {
			t.Errorf("%s: error %q does not name %s", c.name, err, c.node)
		}
	}
	// The largest IDs are a database's own: an image holding them loads.
	img := "R R_a 0 2147483647 \"\"\nN 2147483647 0 \"a\" \"\"\nN 2147483646 2147483647 \"a\" \"\"\n"
	db, err := Load(strings.NewReader(img))
	if err != nil || db.Parent(2147483646) != 2147483647 || !db.Rel("R_a").Has(0, 2147483647) {
		t.Fatalf("Load refused or misread the largest IDs: %v", err)
	}
}

// FuzzLoad feeds Load arbitrary bytes. It must not panic; an image it accepts
// saves to text that loads again and saves to the same bytes; and the walk to
// the root from every node of the catalog ends — at the virtual root 0 or at a
// node outside the catalog — as the walk that builds an answer's label path
// must.
func FuzzLoad(f *testing.F) {
	db := NewDB()
	db.InsertLabeled("R_a", "a", 0, 1, "root")
	db.InsertLabeled("R_b", "b", 1, 2, `q"uote`)
	db.InsertLabeled("R_b", "b", 1, 3, "")
	db.Rel("R_empty")
	db.RebuildIntervals()
	db.DTDFP = "fp"
	var sb strings.Builder
	if err := db.Save(&sb); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(sb.String()))
	f.Add([]byte("# header\n\nR R_e 1 2 \"a\"\nR R_e 1 2 \"a\"\nR R_e 0 1 \"\"\nE R_x\n"))
	f.Add([]byte("N 5 6 \"a\" \"\"\nN 6 5 \"a\" \"\"\n"))
	f.Add([]byte("N 2 7 \"b\" \"\"\nO 2 3 1 0\nO 9 0 4 2\n"))
	for seed := int64(0); seed < 4; seed++ {
		var img strings.Builder
		if err := randomDB(seed, 0).Save(&img); err != nil {
			f.Fatal(err)
		}
		f.Add([]byte(img.String()))
	}
	// Quoted forms that take Unquote's escape path, a raw string, a quote in
	// the middle, invalid UTF-8 and CR-LF line ends.
	f.Add([]byte("R R_v 0 1 \"\\x00\\u2028\\\"\"\r\nR R_v 0 2 `raw`\nR R_v 0 3 \"a\"b\"\nN 1 0 \"t\\xff\" \"\xff\"\r\n"))
	// An element type holding a space, escaped and as Save writes it.
	f.Add([]byte("N 1 0 \"a\\x20b\" \"\"\nN 2 1 \"a b\" \"c d\"\n"))
	f.Fuzz(func(t *testing.T, img []byte) {
		db, err := Load(strings.NewReader(string(img)))
		if err != nil {
			return
		}
		var first strings.Builder
		if err := db.Save(&first); err != nil {
			t.Fatal(err)
		}
		again, err := Load(strings.NewReader(first.String()))
		if err != nil {
			t.Fatalf("Load refused what Save wrote: %v\n%s", err, first.String())
		}
		var second strings.Builder
		if err := again.Save(&second); err != nil {
			t.Fatal(err)
		}
		if first.String() != second.String() {
			t.Fatalf("Save∘Load∘Save changed the image:\n%q\nvs\n%q", first.String(), second.String())
		}
		n := db.NumNodes()
		db.EachNode(func(id int) {
			cur := id
			for steps := 0; cur != 0 && db.HasNode(cur); steps++ {
				if steps > n {
					t.Fatalf("the walk to the root from node %d does not end", id)
				}
				cur = db.Parent(cur)
			}
		})
	})
}

// TestSaveLoadIntervals: a v2 image (O/D records) round-trips the interval
// encoding and the DTD fingerprint, and saving the loaded copy reproduces
// the exact text.
func TestSaveLoadIntervals(t *testing.T) {
	db := NewDB()
	db.InsertLabeled("R_a", "a", 0, 1, "")
	db.InsertLabeled("R_b", "b", 1, 2, "x")
	db.InsertLabeled("R_b", "b", 1, 3, "y")
	b := db.NewIntervalBuilder()
	b.Set(1, NodeInterval{Begin: 0, End: 3, Level: 1})
	b.Set(2, NodeInterval{Begin: 1, End: 2, Level: 2})
	b.Set(3, NodeInterval{Begin: 2, End: 3, Level: 2})
	b.Adopt()
	db.DTDFP = "fp-test"
	var sb strings.Builder
	if err := db.Save(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "O 1 0 3 1\n") || !strings.Contains(sb.String(), "D fp-test\n") {
		t.Fatalf("v2 records missing:\n%s", sb.String())
	}
	got, err := Load(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasIntervals() || got.IntervalCount() != 3 || got.DTDFP != "fp-test" {
		t.Fatalf("encoding lost: has=%v count=%d fp=%q", got.HasIntervals(), got.IntervalCount(), got.DTDFP)
	}
	for id, want := range map[int]NodeInterval{1: {0, 3, 1}, 2: {1, 2, 2}, 3: {2, 3, 2}} {
		if iv, ok := got.Interval(id); !ok || iv != want {
			t.Fatalf("node %d: %+v ok=%v, want %+v", id, iv, ok, want)
		}
	}
	var sb2 strings.Builder
	if err := got.Save(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb.String() != sb2.String() {
		t.Fatalf("v2 save not deterministic:\n%s\nvs\n%s", sb.String(), sb2.String())
	}
}

// TestLoadPreIntervalImage: a v1 image — no O/D records — loads cleanly
// with no interval encoding; RebuildIntervals then computes the dense
// preorder encoding from the relations alone (the boot-time upgrade path).
func TestLoadPreIntervalImage(t *testing.T) {
	v1 := "R R_a 0 1 \"\"\nR R_b 1 2 \"x\"\nR R_b 1 3 \"y\"\n" +
		"N 1 0 \"a\" \"\"\nN 2 1 \"b\" \"x\"\nN 3 1 \"b\" \"y\"\n"
	db, err := Load(strings.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	if db.HasIntervals() || db.DTDFP != "" {
		t.Fatalf("v1 image should have no encoding: has=%v fp=%q", db.HasIntervals(), db.DTDFP)
	}
	db.RebuildIntervals()
	// Levels are 0-based at the root element, matching the shredders.
	for id, want := range map[int]NodeInterval{1: {0, 3, 0}, 2: {1, 2, 1}, 3: {2, 3, 1}} {
		if iv, ok := db.Interval(id); !ok || iv != want {
			t.Fatalf("rebuilt node %d: %+v ok=%v, want %+v", id, iv, ok, want)
		}
	}
}

// TestLoadIntervalErrors: corrupted O records are refused with their line
// number; an inverted interval is corruption too.
func TestLoadIntervalErrors(t *testing.T) {
	for _, bad := range []string{
		"O 1 2",
		"O 1 2 3",
		"O x 0 1 1",
		"O 1 a 2 1",
		"O 1 0 b 1",
		"O 1 0 2 c",
		"O 1 5 2 1", // end < begin
	} {
		if _, err := Load(strings.NewReader(bad + "\n")); err == nil {
			t.Errorf("Load(%q): expected error", bad)
		} else if !strings.Contains(err.Error(), "line 1") {
			t.Errorf("Load(%q): error %q does not name the line", bad, err)
		}
	}
}

// TestLoadRefusesANodeRecordedTwice: an image whose catalog or interval
// encoding names one node twice is refused with ErrDuplicateNode and the line
// of the second record. Loaded, such an image left the catalog and the
// relations disagreeing: Parent(3) == 2 while R_b held (1, 3) and (2, 3).
func TestLoadRefusesANodeRecordedTwice(t *testing.T) {
	db := NewDB()
	db.InsertLabeled("R_a", "a", 0, 1, "")
	db.InsertLabeled("R_b", "b", 1, 2, "x")
	db.InsertLabeled("R_b", "b", 1, 3, "y")
	db.RebuildIntervals()
	var sb strings.Builder
	if err := db.Save(&sb); err != nil {
		t.Fatal(err)
	}
	img := sb.String()
	lines := strings.Count(img, "\n")
	for name, c := range map[string]struct{ extra, line string }{
		"N": {"R R_b 2 3 \"z\"\nN 3 2 \"b\" \"y\"\n", fmt.Sprintf("line %d", lines+2)},
		"O": {"O 2 1 2 1\n", fmt.Sprintf("line %d", lines+1)},
	} {
		_, err := Load(strings.NewReader(img + c.extra))
		if !errors.Is(err, ErrDuplicateNode) || !strings.Contains(err.Error(), c.line) {
			t.Errorf("a second %s record: Load returned %v, want ErrDuplicateNode naming %s", name, err, c.line)
		}
	}
}

// TestLoadDropsARepeatedTuple: Load appends the tuples of an image as Save
// writes them without a probe, and any other tuple through one; a repeated
// tuple is dropped wherever it stands — next to its twin, later in the run,
// or in a second run of its relation — while a node that is the T of two
// tuples with different Fs (an edge relation of any graph) keeps both.
func TestLoadDropsARepeatedTuple(t *testing.T) {
	img := "R R_e 1 2 \"a\"\nR R_e 1 2 \"a\"\nR R_e 1 3 \"\"\nR R_e 1 2 \"a\"\n" +
		"R R_f 2 3 \"\"\nR R_e 1 3 \"\"\nR R_e 2 3 \"\"\nR R_e 0 1 \"\"\nR R_e 0 1 \"\"\n"
	db, err := Load(strings.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	want := []Tuple{{F: 1, T: 2, V: "a"}, {F: 1, T: 3}, {F: 2, T: 3}, {F: 0, T: 1}}
	if got := db.Rel("R_e").Tuples(); !slices.Equal(got, want) {
		t.Fatalf("R_e holds %v, want %v", got, want)
	}
	if got := db.Rel("R_f").Tuples(); len(got) != 1 {
		t.Fatalf("R_f holds %v, want its one tuple", got)
	}
	for _, p := range [][2]int{{1, 2}, {1, 3}, {2, 3}, {0, 1}} {
		if !db.Rel("R_e").Has(p[0], p[1]) {
			t.Errorf("R_e lost (%d, %d)", p[0], p[1])
		}
	}
	if db.Rel("R_e").Has(2, 2) || db.Rel("R_e").PairSetBytes() != 0 {
		t.Errorf("R_e holds (2, 2), or a pair set of %d bytes", db.Rel("R_e").PairSetBytes())
	}
}

// TestImageNumbers: Load's number reader takes back the forms Save writes
// and leaves every other to strconv, which words the errors.
func TestImageNumbers(t *testing.T) {
	for _, n := range []int64{0, 1, 9, 10, 99, 100, 123456789, 999999999, 1000000000,
		math.MaxInt32, math.MaxUint32, math.MaxUint32 + 1, math.MaxInt64, -1, -10, math.MinInt32, math.MinInt64} {
		s := strconv.FormatInt(n, 10)
		if v, ok := digits([]byte(s)); ok != (0 <= n && n < 1e9) || ok && v != n {
			t.Errorf("digits(%q) = %d, %v", s, v, ok)
		}
		if v, err := parseInt([]byte(s), 64); err != nil || v != n {
			t.Errorf("parseInt(%q) = %d, %v", s, v, err)
		}
	}
	for _, s := range []string{"", " ", "+1", "01", "1 ", "1x", "0000000001", "99999999999999999999"} {
		want, werr := strconv.ParseInt(s, 10, 64)
		if got, err := parseInt([]byte(s), 64); got != want || fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Errorf("parseInt(%q) = %d, %v, want %d, %v", s, got, err, want, werr)
		}
	}
}
