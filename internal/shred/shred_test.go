package shred

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"xpath2sql/internal/dtd"
	"xpath2sql/internal/workload"
	"xpath2sql/internal/xmltree"
)

func TestShredPerType(t *testing.T) {
	d := workload.Dept()
	doc, err := xmltree.Parse(`<dept><course><cno>cs11</cno><title>t</title><prereq/><takenBy/></course></dept>`)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Shred(doc, d)
	if err != nil {
		t.Fatal(err)
	}
	// Every declared type gets a relation, even empty ones.
	for _, typ := range d.Types() {
		if _, ok := db.Rels[RelName(typ)]; !ok {
			t.Errorf("missing relation for %s", typ)
		}
	}
	if db.Rel("R_dept").Len() != 1 {
		t.Errorf("R_dept len = %d", db.Rel("R_dept").Len())
	}
	// Root element has F = 0 ('_').
	if tup := db.Rel("R_dept").Tuples()[0]; tup.F != 0 {
		t.Errorf("root F = %d", tup.F)
	}
	if db.Rel("R_course").Len() != 1 {
		t.Errorf("R_course len = %d", db.Rel("R_course").Len())
	}
	if db.Rel("R_cno").Tuples()[0].V != "cs11" {
		t.Errorf("cno V = %q", db.Rel("R_cno").Tuples()[0].V)
	}
	if db.Rel("R_student").Len() != 0 {
		t.Errorf("R_student should be empty")
	}
	if db.NumNodes() != doc.Size() {
		t.Errorf("NumNodes = %d, want %d", db.NumNodes(), doc.Size())
	}
}

func TestShredRejectsUndeclared(t *testing.T) {
	d := workload.Dept()
	doc, _ := xmltree.Parse(`<dept><bogus/></dept>`)
	if _, err := Shred(doc, d); err == nil {
		t.Fatalf("undeclared element accepted")
	}
}

// TestPartitionDept checks the shared-inlining partition of the dept DTD
// against Example 2.3: four subgraphs rooted at dept, course, project and
// student.
func TestPartitionDept(t *testing.T) {
	g := workload.Dept().BuildGraph()
	roots, owner := Partition(g)
	var rootList []string
	for r := range roots {
		rootList = append(rootList, r)
	}
	sort.Strings(rootList)
	want := []string{"course", "dept", "project", "student"}
	if strings.Join(rootList, ",") != strings.Join(want, ",") {
		t.Fatalf("roots = %v, want %v", rootList, want)
	}
	// Inlined assignments per Example 2.3's columns.
	for typ, wantOwner := range map[string]string{
		"cno": "course", "title": "course", "prereq": "course", "takenBy": "course",
		"sno": "student", "name": "student", "qualified": "student",
		"pno": "project", "ptitle": "project", "required": "project",
	} {
		if owner[typ] != wantOwner {
			t.Errorf("owner[%s] = %q, want %q", typ, owner[typ], wantOwner)
		}
	}
}

func TestInlineSchemaDept(t *testing.T) {
	schemas := InlineSchema(workload.Dept())
	byName := map[string]RelSchema{}
	for _, s := range schemas {
		byName[s.Name] = s
	}
	// Example 2.3: Rc(F, T, cno, title, prereq, takenBy, parentCode).
	rc, ok := byName["R_course"]
	if !ok {
		t.Fatalf("missing R_course: %v", schemas)
	}
	if !rc.ParentCode {
		t.Errorf("R_course should need parentCode (multiple incoming edges)")
	}
	wantInlined := []string{"cno", "prereq", "takenBy", "title"}
	if strings.Join(rc.Inlined, ",") != strings.Join(wantInlined, ",") {
		t.Errorf("R_course inlined = %v, want %v", rc.Inlined, wantInlined)
	}
	// Rd(F, T): nothing inlined, single parent.
	rd := byName["R_dept"]
	if len(rd.Inlined) != 0 || rd.ParentCode {
		t.Errorf("R_dept schema = %v", rd)
	}
	// Rs(F, T, sno, name, qualified): student has one incoming edge.
	rs := byName["R_student"]
	if rs.ParentCode {
		t.Errorf("R_student should not need parentCode")
	}
	if len(rs.Inlined) != 3 {
		t.Errorf("R_student inlined = %v", rs.Inlined)
	}
}

func TestInlineShredDept(t *testing.T) {
	d := workload.Dept()
	doc, err := xmltree.Parse(`<dept>
  <course><cno>cs11</cno><title>t1</title>
    <prereq><course><cno>cs66</cno><title>t2</title><prereq/><takenBy/></course></prereq>
    <takenBy><student><sno>s1</sno><name>ann</name><qualified/></student></takenBy>
  </course>
</dept>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(doc); err != nil {
		t.Fatal(err)
	}
	store, err := InlineShred(doc, d)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(store.Rows["R_dept"]); n != 1 {
		t.Fatalf("R_dept rows = %d", n)
	}
	courses := store.Rows["R_course"]
	if len(courses) != 2 {
		t.Fatalf("R_course rows = %d", len(courses))
	}
	// The nested course's parent is the outer course's node, via prereq.
	var outer, inner InlineRow
	for _, r := range courses {
		if r.Attrs["cno"] == "cs11" {
			outer = r
		} else {
			inner = r
		}
	}
	if inner.F != outer.T {
		t.Errorf("inner course F = %d, want outer T %d", inner.F, outer.T)
	}
	if !strings.Contains(inner.ParentCode, "course") {
		t.Errorf("inner parentCode = %q", inner.ParentCode)
	}
	if outer.Attrs["title"] != "t1" {
		t.Errorf("outer title = %q", outer.Attrs["title"])
	}
	students := store.Rows["R_student"]
	if len(students) != 1 || students[0].Attrs["sno"] != "s1" || students[0].Attrs["name"] != "ann" {
		t.Fatalf("students = %+v", students)
	}
	if students[0].F != outer.T {
		t.Errorf("student F = %d, want %d", students[0].F, outer.T)
	}
}

func TestPartitionNonRecursiveChain(t *testing.T) {
	// a → b → c, no stars, single parents: everything inlines into the root.
	g := mustDTD(t, `<!ELEMENT a (b)>
<!ELEMENT b (c)>
<!ELEMENT c (#PCDATA)>`).BuildGraph()
	roots, owner := Partition(g)
	if len(roots) != 1 || !roots["a"] {
		t.Fatalf("roots = %v", roots)
	}
	if owner["b"] != "a" || owner["c"] != "a" {
		t.Fatalf("owner = %v", owner)
	}
}

func TestPartitionStarAndShared(t *testing.T) {
	// b is starred (set-valued) and c has two parents: both become roots.
	g := mustDTD(t, `<!ELEMENT a (b*, c)>
<!ELEMENT b (c)>
<!ELEMENT c (#PCDATA)>`).BuildGraph()
	roots, _ := Partition(g)
	if !roots["b"] {
		t.Errorf("starred b should be a root")
	}
	if !roots["c"] {
		t.Errorf("shared c should be a root")
	}
}

// TestPartitionBreaksInlinedCycles: a cycle of types that each have one
// parent, none of them starred, gets one root, its first type by name, and
// the rest inline into it; so does a type whose one parent is itself.
func TestPartitionBreaksInlinedCycles(t *testing.T) {
	g := mustDTD(t, `<!ELEMENT a (#PCDATA)>
<!ELEMENT y (z?)>
<!ELEMENT z (x?)>
<!ELEMENT x (y)>
<!ELEMENT s (s?)>`).BuildGraph()
	roots, owner := Partition(g)
	var rootList []string
	for r := range roots {
		rootList = append(rootList, r)
	}
	sort.Strings(rootList)
	if got := strings.Join(rootList, ","); got != "a,s,x" {
		t.Fatalf("roots = %s, want a,s,x", got)
	}
	if owner["y"] != "x" || owner["z"] != "x" || owner["s"] != "s" {
		t.Fatalf("owner = %v", owner)
	}
}

// TestPartitionIsLinear: on the complete digraph K12, whose simple cycles
// number in the hundreds of millions, Partition returns within 100 ms, every
// type a root (each has twelve parents).
func TestPartitionIsLinear(t *testing.T) {
	const n = 12
	var src strings.Builder
	for i := range n {
		fmt.Fprintf(&src, "<!ELEMENT e%02d (", i)
		for j := range n {
			if j > 0 {
				src.WriteString(", ")
			}
			fmt.Fprintf(&src, "e%02d?", j)
		}
		src.WriteString(")>\n")
	}
	g := mustDTD(t, src.String()).BuildGraph()
	done := make(chan map[string]bool, 1)
	go func() {
		roots, _ := Partition(g)
		done <- roots
	}()
	select {
	case roots := <-done:
		if len(roots) != n {
			t.Errorf("%d roots of %d types", len(roots), n)
		}
	case <-time.After(100 * time.Millisecond):
		// A partition that enumerates the cycles would go on allocating them
		// long past any test's memory: end the process instead.
		panic("Partition on K12 ran past 100 ms")
	}
}

func mustDTD(t *testing.T, src string) *dtd.DTD {
	t.Helper()
	d, err := dtd.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return d
}
