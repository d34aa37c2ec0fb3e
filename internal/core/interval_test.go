package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"xpath2sql/internal/core"
	"xpath2sql/internal/dtd"
	"xpath2sql/internal/rdb"
	"xpath2sql/internal/shred"
	"xpath2sql/internal/workload"
	"xpath2sql/internal/xmlgen"
)

// randRecDTD synthesizes a random recursive DTD, the same construction as
// the cross-backend harness: a type chain closed into a cycle by a back
// edge, random chords, and text leaves. Recursive by construction, so the
// plans contain fixpoints for the interval kernel to replace.
func randRecDTD(seed int64) *dtd.DTD {
	r := rand.New(rand.NewSource(seed))
	n := 4 + r.Intn(3)
	types := make([]string, n)
	for i := range types {
		types[i] = fmt.Sprintf("t%d", i)
	}
	leaves := []string{"val", "tag"}

	kids := make(map[string][]string)
	for i, typ := range types {
		if i+1 < n {
			kids[typ] = append(kids[typ], types[i+1])
		}
		for j := range types {
			if j != i && r.Intn(4) == 0 {
				kids[typ] = append(kids[typ], types[j])
			}
		}
		if r.Intn(2) == 0 {
			kids[typ] = append(kids[typ], leaves[r.Intn(len(leaves))])
		}
	}
	kids[types[n-1]] = append(kids[types[n-1]], types[r.Intn(n-1)])

	d := dtd.New("doc")
	d.SetProd("doc", dtd.Star{Item: dtd.Name{Type: types[0]}})
	for _, typ := range types {
		seen := map[string]bool{}
		var items []dtd.Content
		for _, k := range kids[typ] {
			if seen[k] {
				continue
			}
			seen[k] = true
			items = append(items, dtd.Star{Item: dtd.Name{Type: k}})
		}
		if len(items) == 1 {
			d.SetProd(typ, items[0])
		} else {
			d.SetProd(typ, dtd.Seq{Items: items})
		}
	}
	for _, leaf := range leaves {
		d.SetProd(leaf, dtd.Name{Text: true})
	}
	return d
}

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
		"rand1": randRecDTD(1),
		"rand2": randRecDTD(2),
		"rand3": randRecDTD(3),
	}
	queriesPerDTD := 30
	if testing.Short() {
		queriesPerDTD = 6
	}
	totalDescScans := 0
	for name, d := range dtds {
		t.Run(name, func(t *testing.T) {
			types := d.Types()
			r := rand.New(rand.NewSource(int64(len(name)) * 7121))
			for docSeed := int64(0); docSeed < 2; docSeed++ {
				doc, err := xmlgen.Generate(d, xmlgen.Options{
					XL: 6, XR: 3, Seed: docSeed, MaxNodes: 300, ValueFunc: valueFunc,
				})
				if err != nil {
					t.Fatal(err)
				}
				db, err := shred.Shred(doc, d)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < queriesPerDTD; i++ {
					q := randQuery(r, types, 3)
					want := oracle(q, doc)
					res, err := core.Translate(q, d, core.DefaultOptions())
					if err != nil {
						t.Fatalf("Translate(%s): %v", q, err)
					}
					offIDs, _ := runIntervalMode(t, db, res, rdb.IntervalOff)
					autoIDs, autoStats := runIntervalMode(t, db, res, rdb.IntervalAuto)
					forceIDs, _ := runIntervalMode(t, db, res, rdb.IntervalForce)
					totalDescScans += autoStats.DescScans
					if !equalInts(offIDs, want) {
						t.Fatalf("doc seed %d, query %s: LFP got %v, want %v", docSeed, q, offIDs, want)
					}
					if !equalInts(autoIDs, want) {
						t.Fatalf("doc seed %d, query %s: interval(auto) got %v, want %v", docSeed, q, autoIDs, want)
					}
					if !equalInts(forceIDs, want) {
						t.Fatalf("doc seed %d, query %s: interval(force) got %v, want %v", docSeed, q, forceIDs, want)
					}
				}
			}
		})
	}
	if totalDescScans == 0 {
		t.Fatal("the suite never exercised the interval kernel")
	}
}
