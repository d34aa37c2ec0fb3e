package core_test

import (
	"slices"
	"testing"

	"xpath2sql/internal/core"
	"xpath2sql/internal/difftest"
	"xpath2sql/internal/dtd"
	"xpath2sql/internal/rdb"
	"xpath2sql/internal/workload"
	"xpath2sql/internal/xmltree"
)

// runIntervalMode executes a translated program at the given interval mode
// and returns the answer IDs plus the run's stats.
func runIntervalMode(t *testing.T, db *rdb.DB, res *core.Result, mode rdb.IntervalMode) ([]int, rdb.Stats) {
	t.Helper()
	ex := rdb.NewExec(db)
	ex.IntervalMode = mode
	rel, err := ex.Run(res.Program)
	if err != nil {
		t.Fatalf("Run(mode=%v): %v", mode, err)
	}
	return rel.AnswerIDs(), ex.Stats
}

// TestIntervalDifferentialRandom: for random documents of the workload DTDs
// plus randomly synthesized recursive DTDs, and random queries of the
// paper's fragment, the pure least-fixpoint execution (IntervalOff), the
// interval kernel when applicable (IntervalAuto), and the kernel-mandatory
// mode (IntervalForce) must all match the native XPath oracle on the tree.
// The suite as a whole must actually exercise the kernel.
func TestIntervalDifferentialRandom(t *testing.T) {
	dtds := map[string]*dtd.DTD{
		"dept":  workload.Dept(),
		"gedml": workload.GedML(),
		"rand1": difftest.RecDTD(difftest.Seed(1)).DTD,
		"rand2": difftest.RecDTD(difftest.Seed(2)).DTD,
		"rand3": difftest.RecDTD(difftest.Seed(3)).DTD,
	}
	queriesPerDTD := 30
	if testing.Short() {
		queriesPerDTD = 6
	}
	totalDescScans := 0
	for name, d := range dtds {
		t.Run(name, func(t *testing.T) {
			r := difftest.Seed(int64(len(name)) * 7121)
			for docSeed := int64(0); docSeed < 2; docSeed++ {
				doc := difftest.Doc(t, d, docSeed, 300)
				db := shredDoc(t, doc, d)
				for i := 0; i < queriesPerDTD; i++ {
					totalDescScans += checkIntervalModes(t, d, doc, db, r)
				}
			}
		})
	}
	if totalDescScans == 0 {
		t.Fatal("the suite never exercised the interval kernel")
	}
}

// FuzzIntervalDifferentialRandom is TestIntervalDifferentialRandom on the
// instances the fuzzer's bytes decode to (fuzzInstance).
func FuzzIntervalDifferentialRandom(f *testing.F) {
	f.Add([]byte{0, 2, 1, 3, 2})
	f.Add([]byte{5, 2, 3, 0, 1, 0, 1, 40, 2, 2, 2, 6})
	f.Fuzz(func(t *testing.T, b []byte) {
		src := difftest.FromBytes(b)
		d, doc, db := fuzzInstance(t, src)
		checkIntervalModes(t, d, doc, db, src)
	})
}

// checkIntervalModes draws one query and checks it at every interval mode
// against the native evaluator on doc. It returns the descendant scans the
// IntervalAuto run made.
func checkIntervalModes(t *testing.T, d *dtd.DTD, doc *xmltree.Document, db *rdb.DB, src difftest.Source) int {
	t.Helper()
	q := difftest.Query(src, d.Types(), 3)
	want := difftest.Oracle(q, doc)
	res, err := core.Translate(q, d, core.DefaultOptions())
	if err != nil {
		t.Fatalf("Translate(%s): %v", q, err)
	}
	scans := 0
	for _, mode := range []rdb.IntervalMode{rdb.IntervalOff, rdb.IntervalAuto, rdb.IntervalForce} {
		got, stats := runIntervalMode(t, db, res, mode)
		if mode == rdb.IntervalAuto {
			scans = stats.DescScans
		}
		if !slices.Equal(got, want) {
			t.Fatalf("query %s: %v got %v, want %v", q, mode, got, want)
		}
	}
	return scans
}
