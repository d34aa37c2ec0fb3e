package core_test

import (
	"fmt"
	"slices"
	"testing"

	"xpath2sql/internal/core"
	"xpath2sql/internal/difftest"
	"xpath2sql/internal/dtd"
	"xpath2sql/internal/rdb"
	"xpath2sql/internal/shred"
	"xpath2sql/internal/workload"
	"xpath2sql/internal/xmltree"
	"xpath2sql/internal/xpath"
)

// deptDoc builds the running example's document of Table 1 / Fig 1:
// d1.c1.c2.c3 and d1.c1.c2.p1.c4.p2 among its paths. Node variable names
// follow the paper (c1..c5, s1, s2, p1, p2).
func deptDoc(t *testing.T) (*xmltree.Document, map[string]xmltree.NodeID) {
	t.Helper()
	root := &xmltree.Node{Label: "dept"}
	course := func(parent *xmltree.Node, cno string) *xmltree.Node {
		c := parent.AddChild("course")
		c.AddChild("cno").Val = cno
		c.AddChild("title").Val = "t-" + cno
		c.AddChild("prereq")
		c.AddChild("takenBy")
		return c
	}
	prereqCourse := func(c *xmltree.Node, cno string) *xmltree.Node {
		var prereq *xmltree.Node
		for _, ch := range c.Children {
			if ch.Label == "prereq" {
				prereq = ch
			}
		}
		return courseUnder(prereq, cno)
	}
	c1 := course(root, "cs11")
	c2 := prereqCourse(c1, "cs66")
	c3 := prereqCourse(c2, "cs33")
	p1 := c2.AddChild("project")
	p1.AddChild("pno").Val = "p-1"
	p1.AddChild("ptitle").Val = "pt-1"
	req := p1.AddChild("required")
	c4 := courseUnder(req, "cs44")
	p2 := c4.AddChild("project")
	p2.AddChild("pno").Val = "p-2"
	p2.AddChild("ptitle").Val = "pt-2"
	p2.AddChild("required")
	var takenBy *xmltree.Node
	for _, ch := range c1.Children {
		if ch.Label == "takenBy" {
			takenBy = ch
		}
	}
	s1 := takenBy.AddChild("student")
	s1.AddChild("sno").Val = "s-1"
	s1.AddChild("name").Val = "ann"
	s1.AddChild("qualified")
	s2 := takenBy.AddChild("student")
	s2.AddChild("sno").Val = "s-2"
	s2.AddChild("name").Val = "bob"
	q2 := s2.AddChild("qualified")
	c5 := courseUnder(q2, "cs66")
	doc := xmltree.NewDocument(root)
	if err := workload.Dept().Validate(doc); err != nil {
		t.Fatalf("dept doc invalid: %v", err)
	}
	ids := map[string]xmltree.NodeID{
		"d1": root.ID, "c1": c1.ID, "c2": c2.ID, "c3": c3.ID, "c4": c4.ID,
		"c5": c5.ID, "s1": s1.ID, "s2": s2.ID, "p1": p1.ID, "p2": p2.ID,
	}
	return doc, ids
}

// courseUnder adds a full course element (cno/title/prereq/takenBy) below a
// parent.
func courseUnder(parent *xmltree.Node, cno string) *xmltree.Node {
	c := parent.AddChild("course")
	c.AddChild("cno").Val = cno
	c.AddChild("title").Val = "t-" + cno
	c.AddChild("prereq")
	c.AddChild("takenBy")
	return c
}

var allStrategies = []core.Strategy{core.StrategyCycleEX, core.StrategyCycleE, core.StrategySQLGenR}

// runStrategy translates and executes a query with the given strategy.
func runStrategy(t *testing.T, q xpath.Path, d *dtd.DTD, db *rdb.DB, s core.Strategy) []int {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Strategy = s
	res, err := core.Translate(q, d, opts)
	if err != nil {
		t.Fatalf("[%v] Translate(%s): %v", s, q, err)
	}
	ids, _, err := res.Execute(db)
	if err != nil {
		t.Fatalf("[%v] Execute(%s): %v", s, q, err)
	}
	return ids
}

// shredDoc shreds doc under d.
func shredDoc(t testing.TB, doc *xmltree.Document, d *dtd.DTD) *rdb.DB {
	t.Helper()
	db, err := shred.Shred(doc, d)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// checkAll asserts that every strategy agrees with the native oracle.
func checkAll(t *testing.T, query string, d *dtd.DTD, doc *xmltree.Document, db *rdb.DB) {
	t.Helper()
	q, err := xpath.Parse(query)
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	want := difftest.Oracle(q, doc)
	for _, s := range allStrategies {
		got := runStrategy(t, q, d, db, s)
		if !slices.Equal(got, want) {
			t.Errorf("[%v] %s: got %v, want %v", s, query, got, want)
		}
	}
}

func TestDeptQ1(t *testing.T) {
	d := workload.Dept()
	doc, ids := deptDoc(t)
	db, err := shred.Shred(doc, d)
	if err != nil {
		t.Fatal(err)
	}
	// Q1 = dept//project must return {p1, p2} (Example 5.1 / Table 3).
	q := xpath.MustParse("dept//project")
	want := []int{int(ids["p1"]), int(ids["p2"])}
	if want[0] > want[1] {
		want[0], want[1] = want[1], want[0]
	}
	for _, s := range allStrategies {
		got := runStrategy(t, q, d, db, s)
		if !slices.Equal(got, want) {
			t.Errorf("[%v] Q1: got %v, want %v", s, got, want)
		}
	}
}

func TestDeptQ2(t *testing.T) {
	d := workload.Dept()
	doc, ids := deptDoc(t)
	db, err := shred.Shred(doc, d)
	if err != nil {
		t.Fatal(err)
	}
	// Q2 of Example 2.2: courses with a cs66 prerequisite, no related
	// project, and no registered student qualified for cs66 — in the Table 1
	// instance, c1 has prereq c2 (cs66) but c2 has a project and s2 is
	// qualified for cs66, so the answer is empty; dropping the ¬-conjuncts
	// must produce {c1}.
	q2 := "dept/course[.//prereq/course[cno[text()='cs66']] and not(.//project) and not(takenBy/student/qualified//course[cno[text()='cs66']])]"
	checkAll(t, q2, d, doc, db)
	got := difftest.Oracle(xpath.MustParse(q2), doc)
	if len(got) != 0 {
		t.Errorf("Q2 oracle = %v, want empty", got)
	}
	q2a := "dept/course[.//prereq/course[cno[text()='cs66']]]"
	checkAll(t, q2a, d, doc, db)
	if got := difftest.Oracle(xpath.MustParse(q2a), doc); !slices.Equal(got, []int{int(ids["c1"])}) {
		t.Errorf("Q2a oracle = %v, want {c1}", got)
	}
}

// TestDeptSuite runs a broad query battery over the dept document, checking
// all three strategies against the oracle.
func TestDeptSuite(t *testing.T) {
	d := workload.Dept()
	doc, _ := deptDoc(t)
	db, err := shred.Shred(doc, d)
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"dept",
		"dept/course",
		"dept/course/prereq/course",
		"dept//course",
		"dept//project",
		"//course",
		"//project",
		"//cno",
		"dept/*",
		"dept/course/*",
		"//*",
		"dept/course | dept/course/prereq/course",
		"dept//prereq/course",
		"dept/course[cno]",
		"dept/course[cno[text()='cs11']]",
		"dept/course[not(project)]",
		"dept/course[.//project]",
		"dept/course[not(.//project)]",
		"dept//course[.//project or qualified]",
		"dept//student[qualified//course]",
		"dept//student[not(qualified//course)]",
		"dept//course[prereq/course and takenBy/student]",
		"dept/course/prereq//course",
		"dept//takenBy/student",
		"dept//required/course//project",
		"dept/course[takenBy/student[name[text()='bob']]]",
		"dept//course[cno[text()='cs66']]",
		"dept//*[cno[text()='cs44']]",
	}
	for _, qs := range queries {
		t.Run(qs, func(t *testing.T) {
			checkAll(t, qs, d, doc, db)
		})
	}
}

// TestCrossQueries runs the Exp-1 queries over a small cross-cycle document.
func TestCrossQueries(t *testing.T) {
	d := workload.Cross()
	// Hand-built document exercising both cycles:
	// a → b → c → (a → b → c, d → a → b).
	root := &xmltree.Node{Label: "a"}
	b1 := root.AddChild("b")
	c1 := b1.AddChild("c")
	a2 := c1.AddChild("a")
	b2 := a2.AddChild("b")
	c2 := b2.AddChild("c")
	c2.Val = "SEL"
	d1 := c1.AddChild("d")
	d1.Val = "SEL"
	a3 := d1.AddChild("a")
	a3.AddChild("b")
	doc := xmltree.NewDocument(root)
	if err := d.Validate(doc); err != nil {
		t.Fatal(err)
	}
	db, err := shred.Shred(doc, d)
	if err != nil {
		t.Fatal(err)
	}
	for name, qs := range workload.CrossQueries {
		t.Run(name, func(t *testing.T) {
			checkAll(t, qs, d, doc, db)
		})
	}
	for _, qs := range []string{
		"a//d", "a//c", "a/b//c", "//d[not(c)]", "a/b/c/d | a//b/c",
		"a//c[d and not(b)]", "a//c[text()='SEL']", "a//*",
	} {
		t.Run(qs, func(t *testing.T) {
			checkAll(t, qs, d, doc, db)
		})
	}
}

func ExampleTranslate() {
	d := workload.Dept()
	q := xpath.MustParse("dept//project")
	res, err := core.Translate(q, d, core.DefaultOptions())
	if err != nil {
		panic(err)
	}
	fmt.Println(res.EQ.Result.String() != "")
	// Output: true
}
