package xpath2sql_test

import (
	"context"
	"slices"
	"strings"
	"testing"

	"xpath2sql"
)

func TestReconstructFacade(t *testing.T) {
	d, _ := xpath2sql.ParseDTD(deptDTD)
	doc, _ := xpath2sql.ParseXML(deptXML)
	db, _ := xpath2sql.Shred(doc, d)
	ctx := context.Background()
	tr, err := xpath2sql.New(d).PrepareString(ctx, "dept//project")
	if err != nil {
		t.Fatal(err)
	}
	ans, err := tr.ExecuteOn(ctx, xpath2sql.NewLocalBackend(db))
	if err != nil {
		t.Fatal(err)
	}
	ids := ans.IDs
	res, err := xpath2sql.Reconstruct(db, ids)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Serialize()
	if !strings.Contains(out, "<project>") || !strings.Contains(out, "<pno>p1</pno>") {
		t.Fatalf("reconstruction:\n%s", out)
	}
	path, err := xpath2sql.AnswerPath(db, ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(path, "dept/course/") || !strings.HasSuffix(path, "/project") {
		t.Fatalf("answer path = %q", path)
	}
}

func TestSpecializedFacade(t *testing.T) {
	inner, err := xpath2sql.ParseDTD(`
<!-- root: store -->
<!ELEMENT store (topSection*)>
<!ELEMENT topSection (topSection*, book*)>
<!ELEMENT book (title, bookSection*)>
<!ELEMENT bookSection (title)>
<!ELEMENT title (#PCDATA)>`)
	if err != nil {
		t.Fatal(err)
	}
	s := &xpath2sql.SpecializedDTD{
		Inner: inner,
		Map:   map[string]string{"topSection": "section", "bookSection": "section"},
	}
	doc, err := xpath2sql.ParseXML(`<store><section><book><title>a</title>
<section><title>ch</title></section></book></section></store>`)
	if err != nil {
		t.Fatal(err)
	}
	db, err := xpath2sql.ShredSpecialized(doc, s)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := xpath2sql.ParseQuery("store//section")
	tr, err := xpath2sql.TranslateSpecialized(q, s, xpath2sql.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ans, err := tr.ExecuteOn(context.Background(), xpath2sql.NewLocalBackend(db))
	if err != nil {
		t.Fatal(err)
	}
	ids := ans.IDs
	want := xpath2sql.EvalXPath(q, doc)
	if len(ids) != len(want) || len(ids) != 2 {
		t.Fatalf("got %v, oracle %v", ids, want)
	}
}

// TestParallelExecuteFacade: a Prepared union query executes through the
// facade on a local backend and answers what the native evaluator does.
func TestParallelExecuteFacade(t *testing.T) {
	d, _ := xpath2sql.ParseDTD(deptDTD)
	doc, _ := xpath2sql.ParseXML(deptXML)
	db, _ := xpath2sql.Shred(doc, d)
	ctx := context.Background()
	const qs = "dept//project | dept//student"
	p, err := xpath2sql.New(d).PrepareString(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := p.ExecuteOn(ctx, xpath2sql.NewLocalBackend(db))
	if err != nil {
		t.Fatal(err)
	}
	q, err := xpath2sql.ParseQuery(qs)
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	for _, id := range xpath2sql.EvalXPath(q, doc) {
		want = append(want, int(id))
	}
	if !slices.Equal(ans.IDs, want) || len(want) == 0 {
		t.Fatalf("answered %v, native evaluator %v", ans.IDs, want)
	}
	if ans.Stats.StmtsRun == 0 {
		t.Fatal("no statements ran")
	}
}

func TestSatisfiableFacade(t *testing.T) {
	d, _ := xpath2sql.ParseDTD(deptDTD)
	cases := map[string]bool{
		"dept//project":                        true,
		"dept/project":                         false, // project is not a child of dept
		"dept/course/course":                   false,
		"dept/course[takenBy/student]":         true,
		"dept/course/takenBy/student[project]": false, // students have no projects
	}
	for qs, want := range cases {
		q, err := xpath2sql.ParseQuery(qs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := xpath2sql.Satisfiable(q, d)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("Satisfiable(%s) = %v, want %v", qs, got, want)
		}
	}
}

func TestSaveLoadFacade(t *testing.T) {
	d, _ := xpath2sql.ParseDTD(deptDTD)
	doc, _ := xpath2sql.ParseXML(deptXML)
	db, _ := xpath2sql.Shred(doc, d)
	var sb strings.Builder
	if err := xpath2sql.SaveDB(db, &sb); err != nil {
		t.Fatal(err)
	}
	db2, err := xpath2sql.LoadDB(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tr, err := xpath2sql.New(d).PrepareString(ctx, "dept//project")
	if err != nil {
		t.Fatal(err)
	}
	a, err := tr.ExecuteOn(ctx, xpath2sql.NewLocalBackend(db))
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.ExecuteOn(ctx, xpath2sql.NewLocalBackend(db2))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.IDs) != len(b.IDs) {
		t.Fatalf("answers differ after reload: %v vs %v", a.IDs, b.IDs)
	}
}
