package core_test

import (
	"slices"
	"testing"

	"xpath2sql/internal/core"
	"xpath2sql/internal/difftest"
	"xpath2sql/internal/dtd"
	"xpath2sql/internal/expath"
	"xpath2sql/internal/rdb"
	"xpath2sql/internal/workload"
	"xpath2sql/internal/xmltree"
	"xpath2sql/internal/xpath"
)

// TestDifferentialRandom is the repository's central property test: for
// random documents of every workload DTD and random queries of the paper's
// fragment, the three translation strategies, the extended-XPath evaluator
// and the native XPath oracle must all agree.
func TestDifferentialRandom(t *testing.T) {
	queriesPerDTD := 40
	if testing.Short() {
		queriesPerDTD = 8
	}
	for _, c := range corpusDTDs()[:5] { // the paper's workloads
		t.Run(c.name, func(t *testing.T) {
			r := difftest.Seed(int64(len(c.name)) * 1237)
			for docSeed := int64(0); docSeed < 3; docSeed++ {
				doc := difftest.Doc(t, c.d, docSeed, 300)
				db := shredDoc(t, doc, c.d)
				for i := 0; i < queriesPerDTD; i++ {
					checkDifferential(t, c.d, doc, db, r, allStrategies)
				}
			}
		})
	}
}

// FuzzDifferentialRandom is TestDifferentialRandom on the instances the
// fuzzer's bytes decode to: a corpus DTD or a drawn recursive one, a
// document, a query — over the polynomial strategies (fuzzStrategies).
func FuzzDifferentialRandom(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{5, 0, 9, 1, 1, 1, 7, 3, 1, 0, 5, 5, 2})
	f.Fuzz(func(t *testing.T, b []byte) {
		src := difftest.FromBytes(b)
		d, doc, db := fuzzInstance(t, src)
		checkDifferential(t, d, doc, db, src, fuzzStrategies)
	})
}

// fuzzInstance decodes a corpus DTD (or, choice 5, a drawn recursive DTD)
// and a document of it.
func fuzzInstance(t *testing.T, src difftest.Source) (*dtd.DTD, *xmltree.Document, *rdb.DB) {
	var d *dtd.DTD
	if i := src.Intn(6); i < 5 {
		d = corpusDTDs()[i].d
	} else {
		d = difftest.RecDTD(src).DTD
	}
	doc := difftest.Doc(t, d, int64(src.Intn(256)), 300)
	return d, doc, shredDoc(t, doc, d)
}

// fuzzStrategies leaves CycleE out of the fuzz twins: its programs grow
// exponentially with the query (one drawn dept query translates to 47 264
// statements), and a drawn input can take a fuzz worker's memory. The seeded
// suites run it.
var fuzzStrategies = []core.Strategy{core.StrategyCycleEX, core.StrategySQLGenR}

// checkDifferential draws one query and checks the extended-XPath evaluator
// and the strategies against the native evaluator on doc.
func checkDifferential(t *testing.T, d *dtd.DTD, doc *xmltree.Document, db *rdb.DB, src difftest.Source, strategies []core.Strategy) {
	t.Helper()
	q := difftest.Query(src, d.Types(), 3)
	want := difftest.Oracle(q, doc)
	eq, err := core.XPathToEXp(q, d, core.RecCycleEX)
	if err != nil {
		t.Fatalf("XPathToEXp(%s): %v", q, err)
	}
	rel, err := expath.EvalQuery(eq, doc)
	if err != nil {
		t.Fatalf("EvalQuery(%s): %v", q, err)
	}
	if got := difftest.IDs(expath.ResultAtRoot(rel, doc)); !slices.Equal(got, want) {
		t.Fatalf("expath eval of %s = %v, want %v\nEQ:\n%s", q, got, want, eq)
	}
	for _, s := range strategies {
		if got := runStrategy(t, q, d, db, s); !slices.Equal(got, want) {
			t.Fatalf("[%v] query %s: got %v, want %v", s, q, got, want)
		}
	}
}

// TestDifferentialOptionMatrix re-runs a query battery under every SQL
// option combination: naive R_id vs optimized ε handling, pushed vs unpushed
// selections, lazy vs eager execution.
func TestDifferentialOptionMatrix(t *testing.T) {
	d := workload.Dept()
	doc := difftest.Doc(t, d, 17, 250)
	db := shredDoc(t, doc, d)
	r := difftest.Seed(555)
	var queries []xpath.Path
	for i := 0; i < 25; i++ {
		queries = append(queries, difftest.Query(r, d.Types(), 3))
	}
	queries = append(queries,
		xpath.MustParse("dept//project"),
		xpath.MustParse("dept/course[.//prereq/course and not(.//project)]"),
	)
	for _, q := range queries {
		want := difftest.Oracle(q, doc)
		for _, useRid := range []bool{false, true} {
			for _, push := range []bool{false, true} {
				for _, lazy := range []bool{false, true} {
					opts := core.Options{Strategy: core.StrategyCycleEX, SQL: core.SQLOptions{
						AtRoot: true, UseRid: useRid, PushSelections: push,
					}}
					res, err := core.Translate(q, d, opts)
					if err != nil {
						t.Fatalf("Translate(%s): %v", q, err)
					}
					ex := rdb.NewExec(db)
					ex.Lazy = lazy
					rel, err := ex.Run(res.Program)
					if err != nil {
						t.Fatalf("Run(%s rid=%v push=%v lazy=%v): %v", q, useRid, push, lazy, err)
					}
					if got := rel.TIDs(); !slices.Equal(got, want) {
						t.Fatalf("%s rid=%v push=%v lazy=%v: got %v, want %v\nprogram:\n%s",
							q, useRid, push, lazy, got, want, res.Program)
					}
				}
			}
		}
	}
}
