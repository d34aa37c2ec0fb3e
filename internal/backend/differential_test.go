package backend_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"xpath2sql/internal/backend"
	"xpath2sql/internal/backend/fakedb"
	"xpath2sql/internal/backend/sqlbe"
	"xpath2sql/internal/cluster"
	"xpath2sql/internal/core"
	"xpath2sql/internal/dtd"
	"xpath2sql/internal/ra"
	"xpath2sql/internal/rdb"
	"xpath2sql/internal/shred"
	"xpath2sql/internal/workload"
	"xpath2sql/internal/xmlgen"
	"xpath2sql/internal/xmltree"
	"xpath2sql/internal/xpath"
)

var allStrategies = []core.Strategy{core.StrategyCycleEX, core.StrategyCycleE, core.StrategySQLGenR}

// randQuery builds a random query of the paper's fragment whose labels are
// drawn from the DTD's element types (same shape as the core differential
// suite, so the two harnesses cover the same query distribution).
func randQuery(r *rand.Rand, types []string, depth int) xpath.Path {
	pick := func() string { return types[r.Intn(len(types))] }
	if depth == 0 {
		switch r.Intn(4) {
		case 0:
			return xpath.Wildcard{}
		case 1:
			return xpath.Empty{}
		default:
			return xpath.Label{Name: pick()}
		}
	}
	switch r.Intn(8) {
	case 0:
		return xpath.Label{Name: pick()}
	case 1:
		return xpath.Seq{L: randQuery(r, types, depth-1), R: randQuery(r, types, depth-1)}
	case 2:
		return xpath.Desc{P: randQuery(r, types, depth-1)}
	case 3:
		return xpath.Seq{L: randQuery(r, types, depth-1), R: xpath.Desc{P: randQuery(r, types, depth-1)}}
	case 4:
		return xpath.Union{L: randQuery(r, types, depth-1), R: randQuery(r, types, depth-1)}
	case 5, 6:
		return xpath.Filter{P: randQuery(r, types, depth-1), Q: randQual(r, types, depth-1)}
	default:
		return xpath.Wildcard{}
	}
}

func randQual(r *rand.Rand, types []string, depth int) xpath.Qual {
	if depth == 0 {
		return xpath.QPath{P: xpath.Label{Name: types[r.Intn(len(types))]}}
	}
	switch r.Intn(6) {
	case 0, 1:
		return xpath.QPath{P: randQuery(r, types, depth-1)}
	case 2:
		return xpath.QText{C: fmt.Sprintf("%s-%d", types[r.Intn(len(types))], r.Intn(5))}
	case 3:
		return xpath.QNot{Q: randQual(r, types, depth-1)}
	case 4:
		return xpath.QAnd{L: randQual(r, types, depth-1), R: randQual(r, types, depth-1)}
	default:
		return xpath.QOr{L: randQual(r, types, depth-1), R: randQual(r, types, depth-1)}
	}
}

// valueFunc draws values from a small pool so text()=c qualifiers hit.
func valueFunc(typ string, r *rand.Rand) string {
	return fmt.Sprintf("%s-%d", typ, r.Intn(5))
}

// randDTD synthesizes a random recursive DTD: a chain t0 → t1 → … → tN
// closed into a cycle by a random back edge, with random chord edges and a
// couple of text leaves. Every instance is recursive by construction, so the
// translations exercise Fix (CycleE/EX) and RecUnion (SQLGen-R) plans.
func randDTD(seed int64) *dtd.DTD {
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
	// Close the chain into a cycle.
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

func oracle(q xpath.Path, doc *xmltree.Document) []int {
	set := xpath.EvalDoc(q, doc)
	ids := set.IDs()
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = int(id)
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

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
		"rand1": randDTD(101),
		"rand2": randDTD(202),
		"rand3": randDTD(303),
	}
	queriesPerDTD := 18
	if testing.Short() {
		queriesPerDTD = 4
	}
	ctx := context.Background()
	for name, d := range dtds {
		t.Run(name, func(t *testing.T) {
			if err := d.Check(); err != nil {
				t.Fatalf("invalid DTD: %v", err)
			}
			types := d.Types()
			r := rand.New(rand.NewSource(int64(len(name)) * 7919))
			empties, answered := 0, 0
			for docSeed := int64(0); docSeed < 2; docSeed++ {
				doc, err := xmlgen.Generate(d, xmlgen.Options{
					XL: 6, XR: 3, Seed: docSeed + 1, MaxNodes: 150, ValueFunc: valueFunc,
				})
				if err != nil {
					t.Fatal(err)
				}
				db, err := shred.Shred(doc, d)
				if err != nil {
					t.Fatal(err)
				}

				dsn := fmt.Sprintf("memory://diff-%s-%d", name, docSeed)
				fakedb.Reset(dsn)
				be, err := sqlbe.Open(ctx, fakedb.DriverName, dsn, sqlbe.Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer func() { be.Close(); fakedb.Reset(dsn) }()
				if err := be.Load(ctx, db); err != nil {
					t.Fatalf("sqlbe Load: %v", err)
				}
				ssnap, err := be.Snapshot(ctx)
				if err != nil {
					t.Fatal(err)
				}
				lsnap, err := backend.NewLocalDB(db).Snapshot(ctx)
				if err != nil {
					t.Fatal(err)
				}

				for i := 0; i < queriesPerDTD; i++ {
					q := randQuery(r, types, 3)
					want := oracle(q, doc)
					if len(want) == 0 {
						empties++
					} else {
						answered++
					}
					for _, s := range allStrategies {
						res, err := core.Translate(q, d, core.Options{Strategy: s, SQL: core.DefaultSQLOptions()})
						if err != nil {
							t.Fatalf("[%v] Translate(%s): %v", s, q, err)
						}
						check := func(which string, snap backend.Snapshot) {
							got, err := snap.Execute(ctx, res.Program, backend.ExecOptions{})
							if err != nil {
								t.Fatalf("[%v] %s Execute(%s): %v", s, which, q, err)
							}
							if !equalInts(got.IDs, want) {
								t.Fatalf("[%v] %s backend of %s = %v, want %v", s, which, q, got.IDs, want)
							}
						}
						check("rdb", lsnap)
						check("sql", ssnap)
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
		"rand1": randDTD(101),
		"rand2": randDTD(202),
		"rand3": randDTD(303),
	}
	queriesPerDTD := 16
	if testing.Short() {
		queriesPerDTD = 6
	}
	ctx := context.Background()
	for name, d := range dtds {
		t.Run(name, func(t *testing.T) {
			types := d.Types()
			r := rand.New(rand.NewSource(int64(len(name)) * 104729))
			var docs []*xmltree.Document
			var parts []*rdb.DB
			var offsets []int
			total := 0
			for docSeed := int64(1); docSeed <= 4; docSeed++ {
				doc, err := xmlgen.Generate(d, xmlgen.Options{
					XL: 6, XR: 3, Seed: docSeed, MaxNodes: 60 + 40*int(docSeed), ValueFunc: valueFunc,
				})
				if err != nil {
					t.Fatal(err)
				}
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
				q := randQuery(r, types, 3)
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
						for _, id := range oracle(q, doc) {
							want = append(want, id+offsets[di])
						}
						cut := []int{}
						for _, id := range whole.IDs {
							if id >= root && id <= end {
								cut = append(cut, id)
							}
						}
						if !equalInts(cut, want) {
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
							if !equalInts(got.IDs, want) {
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
		d := randDTD(seed)
		if err := d.Check(); err != nil {
			t.Fatalf("seed %d: invalid DTD: %v", seed, err)
		}
		if !isRecursive(d) {
			t.Fatalf("seed %d: DTD is not recursive:\n%s", seed, d)
		}
	}
}

// isRecursive reports whether the DTD graph has a cycle, via DFS.
func isRecursive(d *dtd.DTD) bool {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	g := d.BuildGraph()
	color := map[string]int{}
	var visit func(string) bool
	visit = func(typ string) bool {
		color[typ] = gray
		for _, e := range g.Out[typ] {
			switch color[e.To] {
			case gray:
				return true
			case white:
				if visit(e.To) {
					return true
				}
			}
		}
		color[typ] = black
		return false
	}
	return visit(d.Root)
}

// TestParallelLocalMatchesSerial covers the Workers knob of ExecOptions on
// the local backend against the same programs run serially: the same
// answers and, the morsel count aside, the same work; and a join whose probe
// side reaches two morsels (5 000 rows) does split it at 4 workers.
func TestParallelLocalMatchesSerial(t *testing.T) {
	d := workload.Dept()
	doc, err := xmlgen.Generate(d, xmlgen.Options{XL: 6, XR: 3, Seed: 2, MaxNodes: 200, ValueFunc: valueFunc})
	if err != nil {
		t.Fatal(err)
	}
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
		if !equalInts(par.IDs, serial.IDs) {
			t.Fatalf("%s: parallel = %v, serial = %v", qs, par.IDs, serial.IDs)
		}
		if ps, ss := par.Stats, serial.Stats; ps.Minus(rdb.Stats{Morsels: ps.Morsels}) != ss.Minus(rdb.Stats{Morsels: ss.Morsels}) {
			t.Fatalf("%s: parallel did %+v, serial %+v", qs, ps, ss)
		}
		if !equalInts(serial.IDs, oracle(q, doc)) {
			t.Fatalf("%s: serial = %v, oracle = %v", qs, serial.IDs, oracle(q, doc))
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
	doc, err := xmlgen.Generate(d, xmlgen.Options{XL: 6, XR: 3, Seed: 2, MaxNodes: 2000, ValueFunc: valueFunc})
	if err != nil {
		t.Fatal(err)
	}
	db, err := shred.Shred(doc, d)
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
