package rdb

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
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

// TestSaveLoadProperty round-trips randomly generated databases: arbitrary
// relation shapes (including empty and declared-only relations), V values
// drawn from an alphabet of quotes, backslashes, newlines, spaces and
// non-ASCII text, and tombstoned rows (which Save must omit). The round trip
// must reproduce the exact text on a second Save.
func TestSaveLoadProperty(t *testing.T) {
	pieces := []string{
		`"`, `\`, "\n", "\t", " ", "plain", "ünïcode", "日本語", "€", `\"escaped\"`,
		"line1\nline2", `trailing\`, "", "R 1 2", "# not a comment",
	}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := NewDB()
		nRels := rng.Intn(5)
		for r := 0; r < nRels; r++ {
			name := fmt.Sprintf("R_t%d", r)
			n := rng.Intn(6) // 0: declared but empty
			if n == 0 {
				db.Rel(name)
				continue
			}
			for i := 0; i < n; i++ {
				v := pieces[rng.Intn(len(pieces))] + pieces[rng.Intn(len(pieces))]
				id := r*100 + i + 1
				db.InsertLabeled(name, fmt.Sprintf("t%d", r), rng.Intn(id), id, v)
			}
			// Occasionally tombstone a row: Save writes live tuples only.
			if rel := db.Rel(name); rng.Intn(2) == 0 && rel.Len() > 1 {
				tp := rel.Tuples()[0]
				db.Delete(name, tp.F, tp.T)
			}
		}
		var sb strings.Builder
		if err := db.Save(&sb); err != nil {
			t.Fatalf("seed %d: Save: %v", seed, err)
		}
		got, err := Load(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("seed %d: Load: %v\ntext:\n%s", seed, err, sb.String())
		}
		var sb2 strings.Builder
		if err := got.Save(&sb2); err != nil {
			t.Fatalf("seed %d: re-Save: %v", seed, err)
		}
		if sb.String() != sb2.String() {
			t.Fatalf("seed %d: round trip not identical:\n%q\nvs\n%q", seed, sb.String(), sb2.String())
		}
		if got.NumNodes() != db.NumNodes() {
			t.Fatalf("seed %d: %d nodes loaded, want %d", seed, got.NumNodes(), db.NumNodes())
		}
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
