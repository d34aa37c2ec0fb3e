package backend_test

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"xpath2sql/internal/backend"
	"xpath2sql/internal/backend/fakedb"
	"xpath2sql/internal/backend/sqlbe"
	"xpath2sql/internal/cluster"
	"xpath2sql/internal/core"
	"xpath2sql/internal/difftest"
	"xpath2sql/internal/dtd"
	"xpath2sql/internal/ra"
	"xpath2sql/internal/rdb"
	"xpath2sql/internal/shred"
	"xpath2sql/internal/workload"
	"xpath2sql/internal/xmltree"
	"xpath2sql/internal/xpath"
)

var allStrategies = []core.Strategy{core.StrategyCycleEX, core.StrategyCycleE, core.StrategySQLGenR}

// TestDifferentialBackends is the cross-backend property test: for random
// documents of the workload DTDs plus randomly synthesized recursive DTDs,
// and random queries of the paper's fragment, all three translation
// strategies must produce the same answer through the in-process rdb backend
// and through the SQL backend actually executing the rendered WITH RECURSIVE
// text over database/sql — and both must match the native XPath oracle.
func TestDifferentialBackends(t *testing.T) {
	dtds := map[string]*dtd.DTD{
		"dept":  workload.Dept(),
		"cross": workload.Cross(),
		"gedml": workload.GedML(),
		"rand1": difftest.RecDTD(difftest.Seed(101)).DTD,
		"rand2": difftest.RecDTD(difftest.Seed(202)).DTD,
		"rand3": difftest.RecDTD(difftest.Seed(303)).DTD,
	}
	queriesPerDTD := 18
	if testing.Short() {
		queriesPerDTD = 4
	}
	for name, d := range dtds {
		t.Run(name, func(t *testing.T) {
			if err := d.Check(); err != nil {
				t.Fatalf("invalid DTD: %v", err)
			}
			r := difftest.Seed(int64(len(name)) * 7919)
			empties, answered := 0, 0
			for docSeed := int64(0); docSeed < 2; docSeed++ {
				b := loadBackends(t, d, difftest.Doc(t, d, docSeed+1, 150))
				for i := 0; i < queriesPerDTD; i++ {
					if checkBackends(t, b, r, allStrategies) {
						answered++
					} else {
						empties++
					}
				}
			}
			// The distribution must exercise both sides: queries with
			// answers and queries with empty answers.
			if answered == 0 || empties == 0 {
				t.Fatalf("degenerate query mix: %d answered, %d empty", answered, empties)
			}
		})
	}
}

// FuzzDifferentialBackends is TestDifferentialBackends on the instances the
// fuzzer's bytes decode to: a workload DTD or (choice 3) a drawn recursive
// one, a document, a query — over CycleEX and SQLGen-R.
func FuzzDifferentialBackends(f *testing.F) {
	f.Add([]byte{0, 1, 2})
	f.Add([]byte{3, 1, 0, 2, 1, 0, 0, 9, 4, 1, 5, 5})
	f.Fuzz(func(t *testing.T, in []byte) {
		src := difftest.FromBytes(in)
		d := []*dtd.DTD{workload.Dept(), workload.Cross(), workload.GedML(), nil}[src.Intn(4)]
		if d == nil {
			d = difftest.RecDTD(src).DTD
		}
		// Not CycleE: its programs grow exponentially with the query (one
		// drawn dept query translates to 47 264 statements), and a drawn input
		// can take a fuzz worker's memory. The seeded suite runs it.
		polynomial := []core.Strategy{core.StrategyCycleEX, core.StrategySQLGenR}
		checkBackends(t, loadBackends(t, d, difftest.Doc(t, d, int64(src.Intn(256)), 150)), src, polynomial)
	})
}

// backends is one document, loaded into the rdb backend and the SQL backend.
type backends struct {
	d        *dtd.DTD
	doc      *xmltree.Document
	rdb, sql backend.Snapshot
}

func loadBackends(t *testing.T, d *dtd.DTD, doc *xmltree.Document) backends {
	t.Helper()
	db, err := shred.Shred(doc, d)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	dsn := fmt.Sprintf("memory://diff-%s-%p", t.Name(), doc)
	fakedb.Reset(dsn)
	be, err := sqlbe.Open(ctx, fakedb.DriverName, dsn, sqlbe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { be.Close(); fakedb.Reset(dsn) })
	if err := be.Load(ctx, db); err != nil {
		t.Fatalf("sqlbe Load: %v", err)
	}
	b := backends{d: d, doc: doc}
	if b.sql, err = be.Snapshot(ctx); err != nil {
		t.Fatal(err)
	}
	if b.rdb, err = backend.NewLocalDB(db).Snapshot(ctx); err != nil {
		t.Fatal(err)
	}
	return b
}

// checkBackends draws one query and checks the strategies on both backends
// against the native evaluator. It reports whether the answer is non-empty.
func checkBackends(t *testing.T, b backends, src difftest.Source, strategies []core.Strategy) bool {
	t.Helper()
	q := difftest.Query(src, b.d.Types(), 3)
	want := difftest.Oracle(q, b.doc)
	for _, s := range strategies {
		res, err := core.Translate(q, b.d, core.Options{Strategy: s, SQL: core.DefaultSQLOptions()})
		if err != nil {
			t.Fatalf("[%v] Translate(%s): %v", s, q, err)
		}
		for which, snap := range map[string]backend.Snapshot{"rdb": b.rdb, "sql": b.sql} {
			got, err := snap.Execute(context.Background(), res.Program, backend.ExecOptions{})
			if err != nil {
				t.Fatalf("[%v] %s Execute(%s): %v", s, which, q, err)
			}
			if !slices.Equal(got.IDs, want) {
				t.Fatalf("[%v] %s backend of %s = %v, want %v", s, which, q, got.IDs, want)
			}
		}
	}
	return len(want) > 0
}

// TestDifferentialScoped is the document-scope property test: over
// multi-document collections of the workload DTDs and of random recursive
// DTDs, for random queries of the whole fragment — unanchored //x, unions, ε,
// qualifiers with negation and text() tests — and all three strategies, an
// execution scoped to one document must equal (a) the native evaluator on
// that document alone and (b) the unscoped answer cut to the document's ID
// range, at 1 and 4 workers, on the interval kernel and on the fixpoint
// path. (The SQL backend refuses a scope: sqlbe.TestScopeRefused.)
func TestDifferentialScoped(t *testing.T) {
	dtds := map[string]*dtd.DTD{
		"dept":  workload.Dept(),
		"cross": workload.Cross(),
		"gedml": workload.GedML(),
		"rand1": difftest.RecDTD(difftest.Seed(101)).DTD,
		"rand2": difftest.RecDTD(difftest.Seed(202)).DTD,
		"rand3": difftest.RecDTD(difftest.Seed(303)).DTD,
	}
	queriesPerDTD := 16
	if testing.Short() {
		queriesPerDTD = 6
	}
	ctx := context.Background()
	for name, d := range dtds {
		t.Run(name, func(t *testing.T) {
			r := difftest.Seed(int64(len(name)) * 104729)
			var docs []*xmltree.Document
			var parts []*rdb.DB
			var offsets []int
			total := 0
			for docSeed := int64(1); docSeed <= 4; docSeed++ {
				doc := difftest.Doc(t, d, docSeed, 60+40*int(docSeed))
				db, err := shred.Shred(doc, d)
				if err != nil {
					t.Fatal(err)
				}
				docs, parts, offsets = append(docs, doc), append(parts, db), append(offsets, total)
				total += db.NumNodes()
			}
			coll, err := cluster.BuildCollection(d, parts)
			if err != nil {
				t.Fatal(err)
			}
			snap := backend.AdoptDB(coll, 0)

			answered := 0
			for i := 0; i < queriesPerDTD; i++ {
				q := difftest.Query(r, d.Types(), 3)
				for _, s := range allStrategies {
					res, err := core.Translate(q, d, core.Options{Strategy: s, SQL: core.DefaultSQLOptions()})
					if err != nil {
						t.Fatalf("[%v] Translate(%s): %v", s, q, err)
					}
					whole, err := snap.Execute(ctx, res.Program, backend.ExecOptions{})
					if err != nil {
						t.Fatalf("[%v] unscoped Execute(%s): %v", s, q, err)
					}
					for di, doc := range docs {
						root, end := offsets[di]+1, offsets[di]+parts[di].NumNodes()
						want := []int{}
						for _, id := range difftest.Oracle(q, doc) {
							want = append(want, id+offsets[di])
						}
						cut := []int{}
						for _, id := range whole.IDs {
							if id >= root && id <= end {
								cut = append(cut, id)
							}
						}
						if !slices.Equal(cut, want) {
							t.Fatalf("[%v] unscoped %s cut to document %d = %v, native evaluator %v", s, q, di, cut, want)
						}
						if len(want) > 0 {
							answered++
						}
						for _, opts := range []backend.ExecOptions{
							{Doc: root},
							{Doc: root, Workers: 4},
							{Doc: root, Intervals: rdb.IntervalOff},
							{Doc: root, Intervals: rdb.IntervalOff, Workers: 4},
						} {
							got, err := snap.Execute(ctx, res.Program, opts)
							if err != nil {
								t.Fatalf("[%v] %s scoped to document %d (%+v): %v", s, q, di, opts, err)
							}
							if !slices.Equal(got.IDs, want) {
								t.Fatalf("[%v] %s scoped to document %d (workers %d, intervals %v) = %v, native evaluator on it alone %v\n%s",
									s, q, di, opts.Workers, opts.Intervals, got.IDs, want, res.Program)
							}
						}
					}
				}
			}
			if answered == 0 {
				t.Fatal("every query answered empty in every document")
			}
		})
	}
}

// TestRandDTDsAreRecursive pins the generator's guarantee: every synthesized
// DTD contains a cycle, so the differential suite always covers recursive
// plans (Fix and RecUnion), not just the workload graphs.
func TestRandDTDsAreRecursive(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		d := difftest.RecDTD(difftest.Seed(seed)).DTD
		if err := d.Check(); err != nil {
			t.Fatalf("seed %d: invalid DTD: %v", seed, err)
		}
		if !d.BuildGraph().Recursive() {
			t.Fatalf("seed %d: DTD is not recursive:\n%s", seed, d)
		}
	}
}

// TestParallelLocalMatchesSerial covers the Workers knob of ExecOptions on
// the local backend against the same programs run serially: the same
// answers and, the morsel count aside, the same work; and a join whose probe
// side reaches two morsels (5 000 rows) does split it at 4 workers.
func TestParallelLocalMatchesSerial(t *testing.T) {
	d := workload.Dept()
	doc := difftest.Doc(t, d, 2, 200)
	db, err := shred.Shred(doc, d)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	snap, err := backend.NewLocalDB(db).Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, qs := range []string{"dept//course", "//course[.//prereq]//student"} {
		q, err := xpath.Parse(qs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Translate(q, d, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		serial, err := snap.Execute(ctx, res.Program, backend.ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		par, err := snap.Execute(ctx, res.Program, backend.ExecOptions{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(par.IDs, serial.IDs) {
			t.Fatalf("%s: parallel = %v, serial = %v", qs, par.IDs, serial.IDs)
		}
		if ps, ss := par.Stats, serial.Stats; ps.Minus(rdb.Stats{Morsels: ps.Morsels}) != ss.Minus(rdb.Stats{Morsels: ss.Morsels}) {
			t.Fatalf("%s: parallel did %+v, serial %+v", qs, ps, ss)
		}
		if !slices.Equal(serial.IDs, difftest.Oracle(q, doc)) {
			t.Fatalf("%s: serial = %v, oracle = %v", qs, serial.IDs, difftest.Oracle(q, doc))
		}
	}
	wide := rdb.NewDB()
	for i := 1; i <= 5000; i++ {
		wide.Insert("E", i, 5000+i, "")
		wide.Insert("E", 5000+i, 10000+i, "")
	}
	hop := &ra.Program{Stmts: []ra.Stmt{{Name: "r", Plan: ra.Compose{L: ra.Base{Rel: "E"}, R: ra.Base{Rel: "E"}}}}, Result: "r"}
	var morsels [2]int
	for i, workers := range []int{1, 4} {
		res, err := backend.AdoptDB(wide, 1).Execute(ctx, hop, backend.ExecOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.IDs) != 5000 {
			t.Fatalf("%d workers: %d answers, want 5000", workers, len(res.IDs))
		}
		morsels[i] = res.Stats.Morsels
	}
	if morsels[0] != 0 || morsels[1] == 0 {
		t.Fatalf("morsels at 1 and 4 workers: %v; only the run at 4 may split the join", morsels)
	}
}

// readMix is the read-desc workload's query mix (benchmark/gen.go).
var readMix = []string{
	"dept//project",
	"dept//cno",
	"dept//course//title",
	"dept//student[qualified//course]",
	"dept/course[cno and not(.//project)]",
	"dept/course/prereq//course/prereq/course",
	"dept//cno[text()='cno-5']",
	"dept//sno | dept//pno",
}

// TestWarmWorkersAllocLikeSerial: Workers only caps the morsel fan-out of an
// operator whose input passes the threshold, and the same pooled executor
// runs every request, so a warm request at 4 workers whose operands all stay
// under the threshold — the read mix on a small dept document — allocates
// exactly what a serial one does.
func TestWarmWorkersAllocLikeSerial(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; alloc counts need a normal build")
	}
	d := workload.Dept()
	db, err := shred.Shred(difftest.Doc(t, d, 2, 2000), d)
	if err != nil {
		t.Fatal(err)
	}
	snap, ctx := backend.AdoptDB(db, 1), context.Background()
	for _, qs := range readMix {
		q, err := xpath.Parse(qs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Translate(q, d, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		// The fewest of three measurements: a GC that empties the state pool
		// mid-measurement costs one a fresh state.
		allocs := func(workers int) float64 {
			least := math.Inf(1)
			for range 3 {
				var stats rdb.Stats
				least = min(least, testing.AllocsPerRun(50, func() {
					ans, err := snap.Execute(ctx, res.Program, backend.ExecOptions{Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					stats = ans.Stats
				}))
				if stats.Morsels != 0 {
					t.Fatalf("%s at %d workers: %d morsels; the document must stay under the threshold", qs, workers, stats.Morsels)
				}
			}
			return least
		}
		if serial, par := allocs(1), allocs(4); serial != par {
			t.Errorf("%s: %v allocations a request at 4 workers, %v at 1", qs, par, serial)
		}
	}
}
