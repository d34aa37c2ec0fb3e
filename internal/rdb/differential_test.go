package rdb

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"xpath2sql/internal/difftest"
	"xpath2sql/internal/ra"
)

// The differential property tests: random ra.Programs run through the
// compact morsel-parallel engine (serial, and intra-operator parallel with
// tiny forced morsels) must produce (F, T, V) sets identical to the retained
// naive seed evaluator (naive.go).

// randDB builds a random database over nRels edge relations with node IDs
// in [1, n] and values from a tiny vocabulary. A node has one value, whatever
// edge reaches it: V is a function of T in every relation a shredder or the
// store writes, which is what lets Relation dedup on (F, T) alone and gives an
// identity relation one row per node — with a value per edge the row an
// operator keeps for a node depends on the order it met them in.
func randDB(r difftest.Source, n, nRels int) *DB {
	db := NewDB()
	vocab := []string{"", "a", "b", "c"}
	vals := make([]string, n+1)
	for id := range vals {
		vals[id] = vocab[r.Intn(len(vocab))]
	}
	for ri := 0; ri < nRels; ri++ {
		name := fmt.Sprintf("R%d", ri)
		db.Rel(name) // declare even if it stays empty
		edges := r.Intn(3 * n)
		for i := 0; i < edges; i++ {
			f := r.Intn(n + 1) // 0 = virtual root allowed
			t := 1 + r.Intn(n)
			db.Insert(name, f, t, vals[t])
		}
	}
	return db
}

// The operator sets the suites draw programs from (difftest.Program).
var (
	// graphOps is every operator but DescScan, whose kernel needs an
	// interval-encoded database.
	graphOps = []difftest.Op{difftest.Compose, difftest.UnionAll, difftest.FixPaths, difftest.SelectVal,
		difftest.SelectRoot, difftest.Semijoin, difftest.Antijoin, difftest.Diff, difftest.TypeFilter,
		difftest.IdentOf, difftest.RecUnion, difftest.Ident}
	// insertOps is the insert-maintainable fragment: no Antijoin, Diff,
	// RecUnion or tracked paths. Semijoin and SelectVal are in, so the views
	// span the text-immune sub-fragment and its complement.
	insertOps = []difftest.Op{difftest.Compose, difftest.UnionAll, difftest.Fix, difftest.Fix, difftest.SelectVal,
		difftest.SelectRoot, difftest.Semijoin, difftest.TypeFilter, difftest.IdentOf, difftest.Ident}
	// treeOps adds DescScan, on the interval kernel and its fallback alike.
	treeOps = []difftest.Op{difftest.Compose, difftest.UnionAll, difftest.Fix, difftest.SelectVal, difftest.SelectRoot,
		difftest.Semijoin, difftest.TypeFilter, difftest.IdentOf, difftest.DescScan, difftest.DescScan, difftest.Ident}
)

// treeProgram draws a program of treeOps over an encoded forest's
// relations; without semi it has no Semijoin, whose rows can lose a witness
// between two live nodes.
func treeProgram(r difftest.Source, nRels int, semi bool) *ra.Program {
	ops := treeOps
	if !semi {
		ops = slices.DeleteFunc(slices.Clone(ops), func(op difftest.Op) bool { return op == difftest.Semijoin })
	}
	p := difftest.Program(r, nRels, ops)
	p.DTDFP = "fp-tree-test"
	return p
}

// canonTuples sorts a copy of the tuples on (F, T, V).
func canonTuples(tuples []Tuple) []Tuple {
	out := slices.Clone(tuples)
	slices.SortFunc(out, func(a, b Tuple) int {
		return cmp.Or(cmp.Compare(a.F, b.F), cmp.Compare(a.T, b.T), strings.Compare(a.V, b.V))
	})
	return out
}

func sameTuples(a, b []Tuple) bool { return slices.Equal(canonTuples(a), canonTuples(b)) }

// forceTinyMorsels shrinks the morsel size so even the small differential
// databases cross the fan-out threshold and exercise the parallel kernels.
func forceTinyMorsels(t testing.TB) {
	t.Helper()
	old := morselRows
	morselRows = 4
	t.Cleanup(func() { morselRows = old })
}

func TestDifferentialRandomPrograms(t *testing.T) {
	forceTinyMorsels(t)
	f := func(seed int64) bool { return checkRandomProgram(t, fmt.Sprintf("seed=%d", seed), difftest.Seed(seed)) }
	// Two inputs on which the kernels and the naive evaluator used to disagree
	// in V, when randDB still drew a value per edge.
	for _, seed := range []int64{2139093835412509906, 3648113173184688121} {
		if !f(seed) {
			t.Fatalf("pinned input %d fails", seed)
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}

	// The shapes where Exec computes less than a whole operator, over
	// interval-encoded forests: every physical path — the interval kernel with
	// its staircase and existence uses, the fixpoint alternative, the kernel
	// forced — must answer what the naive evaluator does.
	var used Stats
	g := func(seed int64) bool {
		ok, st := checkKernelProgram(t, fmt.Sprintf("seed=%d", seed), difftest.Seed(seed))
		used.Add(st)
		return ok
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	t.Logf("kernel programs under IntervalAuto: %+v", used)
	if used.StairScans == 0 || used.ExistsProbes == 0 {
		t.Fatalf("the kernel programs never took a partial path: %+v", used)
	}
}

// FuzzDifferentialRandomPrograms is TestDifferentialRandomPrograms on the
// instances the fuzzer's bytes decode to: a random program over a random
// graph, or (first byte odd) a kernel program over a forest.
func FuzzDifferentialRandomPrograms(f *testing.F) {
	forceTinyMorsels(f)
	f.Add([]byte{0, 1, 5, 2, 3})
	f.Add([]byte{1, 2, 30, 2, 0, 1, 3, 1})
	f.Add([]byte{2, 2, 19, 3, 1, 3, 9, 4, 12, 1, 7, 2, 2, 11, 0, 6})
	f.Fuzz(func(t *testing.T, b []byte) {
		src := difftest.FromBytes(b)
		ok := false
		if src.Intn(2) == 0 {
			ok = checkRandomProgram(t, "input", src)
		} else {
			ok, _ = checkKernelProgram(t, "input", src)
		}
		if !ok {
			t.Fail()
		}
	})
}

// checkRandomProgram draws a graph database and a program of graphOps, and
// checks the serial and the morsel-parallel engine against the naive
// evaluator: the same tuples, the same answer, the same operator accounting.
func checkRandomProgram(t *testing.T, name string, r difftest.Source) bool {
	t.Helper()
	nRels := 1 + r.Intn(3)
	db := randDB(r, 3+r.Intn(20), nRels)
	p := difftest.Program(r, nRels, graphOps)

	want, err := NewNaiveExec(db).Run(p)
	if err != nil {
		t.Logf("naive: %v", err)
		return false
	}

	se := NewExec(db)
	serial, err := se.Run(p)
	if err != nil {
		t.Logf("serial: %v", err)
		return false
	}
	par := NewExec(db)
	par.Parallelism = 4
	parRel, err := par.Run(p)
	if err != nil {
		t.Logf("parallel: %v", err)
		return false
	}
	if msg := distinctRuns(db, p, want.Tuples(), se, par); msg != "" {
		t.Logf("%s: %s\nprogram:\n%s", name, msg, p)
		return false
	}
	for engine, got := range map[string]*Relation{"serial": serial, "morsel": parRel} {
		if !sameTuples(want.Tuples(), got.Tuples()) {
			t.Logf("%s: tuples differ from naive (%s)\nnaive: %v\n%s: %v",
				engine, name, canonTuples(want.Tuples()), engine, canonTuples(got.Tuples()))
			return false
		}
		if !slices.Equal(want.TIDs(), got.TIDs()) {
			t.Logf("%s: TIDs differ from naive (%s)", engine, name)
			return false
		}
	}
	// The morsel engine must agree with the serial engine on operator
	// accounting (everything except the morsel counter itself).
	se, pe := NewExec(db), NewExec(db)
	pe.Parallelism = 4
	if _, err := se.Run(p); err != nil {
		return false
	}
	if _, err := pe.Run(p); err != nil {
		return false
	}
	ss, ps := se.Stats, pe.Stats
	ss.Morsels, ps.Morsels = 0, 0
	if ss != ps {
		t.Logf("stats differ (%s): serial %+v parallel %+v", name, ss, ps)
		return false
	}
	return true
}

// checkKernelProgram draws a forest and a kernelProgram and checks every
// physical path at 1 and 4 workers, pooled and not, against the naive
// evaluator. It returns the accounting of the serial IntervalAuto run.
func checkKernelProgram(t *testing.T, name string, r difftest.Source) (ok bool, used Stats) {
	t.Helper()
	nRels := 1 + r.Intn(3)
	db := makeForest(r, 4+r.Intn(40), 1+r.Intn(3), nRels)
	p := kernelProgram(r, nRels)
	want, err := NewNaiveExec(db).Run(p)
	if err != nil {
		t.Logf("naive: %v", err)
		return false, used
	}
	for _, mode := range []IntervalMode{IntervalAuto, IntervalOff, IntervalForce} {
		var stats [3]Stats
		for i, workers := range []int{1, 4, 4} {
			ex := NewExec(db)
			if i == 2 { // pooled: the morsel workers read its temporaries' key sets
				st := AcquireState(db)
				defer st.Release()
				ex = st.Exec()
			}
			ex.IntervalMode, ex.Parallelism = mode, workers
			got, err := ex.Run(p)
			if err == nil && !sameTuples(want.Tuples(), got.Tuples()) {
				err = fmt.Errorf("tuples differ from naive\nnaive: %v\ngot:   %v", canonTuples(want.Tuples()), canonTuples(got.Tuples()))
			}
			if err != nil {
				t.Logf("%s, %v, parallelism %d: %v\nprogram:\n%s", name, mode, workers, err, p)
				return false, used
			}
			stats[i] = ex.Stats
			stats[i].Morsels = 0
		}
		if stats[0] != stats[1] || stats[0] != stats[2] {
			t.Logf("%s, %v: stats differ, serial %+v parallel %+v, pooled parallel %+v", name, mode, stats[0], stats[1], stats[2])
			return false, used
		}
		if mode == IntervalAuto {
			used.Add(stats[0])
		}
	}
	if msg := distinctRuns(db, p, want.Tuples()); msg != "" {
		t.Logf("%s: %s\nprogram:\n%s", name, msg, p)
		return false, used
	}
	return true, used
}

// kernelProgram draws, over a forest of nRels relations (makeForest), the
// shapes where Exec computes less than a whole operator:
//
//   - ctx ⋈ DescScan{Start: ctx}, and the same without Start, with ctx of one
//     F — the virtual root's over sources nested at every depth, a document
//     root's — or of many;
//   - semijoins and antijoins whose right operand is a DescScan, a compose
//     chain ending in or passing through one, a union of such a chain, or a
//     compose over a union, or of a union and a DescScan in either order.
//
// Every DescScan's Alt is the fixpoint form of what the kernel answers (the
// closure of all edges, typed at both ends), so every path, and the naive
// evaluator, answer alike.
func kernelProgram(r difftest.Source, nRels int) *ra.Program {
	rel := func() string { return fmt.Sprintf("R%d", r.Intn(nRels)) }
	var edges []ra.Plan
	for i := 0; i < nRels; i++ {
		edges = append(edges, ra.Base{Rel: fmt.Sprintf("R%d", i)})
	}
	closure := ra.Temp{Name: "closure"}
	ctxs := []ra.Plan{
		ra.Compose{L: ra.RootSeed{}, R: closure},
		ra.Compose{L: ra.RootSeed{}, R: ra.TypeFilter{Child: closure, Rel: rel()}},
		ra.Compose{L: ra.IdentOf{Child: ra.SelectRoot{Child: ra.Base{Rel: rel()}}}, R: closure},
		ra.SelectRoot{Child: ra.Base{Rel: rel()}},
		closure,
		ra.Base{Rel: rel()},
	}
	ctx := ra.Temp{Name: "ctx"}
	desc := func() ra.DescScan {
		from, to := rel(), rel()
		alt := ra.TypeFilter{Child: ra.TypeFilter{Child: closure, Rel: from, OnF: true}, Rel: to}
		ds := ra.DescScan{From: from, To: to, Alt: alt}
		if r.Intn(3) > 0 {
			ds.Start = ctx
		}
		if r.Intn(2) == 0 {
			ds.End = ra.Base{Rel: rel()}
		}
		return ds
	}
	operand := func() ra.Plan {
		return []ra.Plan{ra.Base{Rel: rel()}, ctx, closure, ra.Temp{Name: "stair"}}[r.Intn(4)]
	}
	var right ra.Plan
	switch r.Intn(7) {
	case 0:
		right = desc()
	case 1:
		right = ra.Compose{L: operand(), R: desc()}
	case 2:
		right = ra.Compose{L: ra.Compose{L: operand(), R: desc()}, R: operand()}
	case 3:
		right = ra.UnionAll{Kids: []ra.Plan{ra.Compose{L: operand(), R: desc()}, operand()}}
	case 4:
		right = ra.Compose{L: operand(), R: ra.UnionAll{Kids: []ra.Plan{desc(), operand()}}}
	case 5: // the DescScan probes two witness relations
		right = ra.Compose{L: desc(), R: ra.UnionAll{Kids: []ra.Plan{operand(), operand()}}}
	default:
		right = ra.Compose{L: ra.UnionAll{Kids: []ra.Plan{operand(), operand()}}, R: desc()}
	}
	var qualified ra.Plan = ra.Semijoin{L: operand(), R: right}
	if r.Intn(2) == 0 {
		qualified = ra.Antijoin{L: operand(), R: right}
	}
	return &ra.Program{Stmts: []ra.Stmt{
		{Name: "closure", Plan: ra.Fix{Seed: ra.UnionAll{Kids: edges}}},
		{Name: "ctx", Plan: ctxs[r.Intn(len(ctxs))]},
		{Name: "stair", Plan: ra.Compose{L: ctx, R: desc()}},
		{Name: "result", Plan: ra.UnionAll{Kids: []ra.Plan{ra.Temp{Name: "stair"}, qualified}}},
	}, Result: "result", DTDFP: "fp-tree-test"}
}

// repeatedPair describes an (F, T) pair r holds twice, or returns "". No
// relation may: kernels append without hashing on the strength of it.
func repeatedPair(r *Relation) string {
	seen := make(map[uint64]bool, len(r.rows))
	for _, w := range r.rows {
		k := packPair(w.f, w.t)
		if seen[k] {
			return fmt.Sprintf("relation %q holds (%d, %d) twice", r.Name, w.f, w.t)
		}
		seen[k] = true
	}
	return ""
}

// distinctRuns checks the duplicate-free invariant over every relation p's
// runs built: the statements of the executors that already ran it, and every
// temporary of a pooled run at parallelism 1 and 4 — whose answer must also
// be the naive evaluator's.
func distinctRuns(db *DB, p *ra.Program, want []Tuple, ran ...*Exec) string {
	for _, ex := range ran {
		for _, r := range ex.env {
			if msg := repeatedPair(r); msg != "" {
				return fmt.Sprintf("parallelism %d: %s", ex.Parallelism, msg)
			}
		}
	}
	for _, workers := range []int{1, 4} {
		st := AcquireState(db)
		ex := st.Exec()
		ex.Parallelism = workers
		got, err := ex.Run(p)
		msg := ""
		switch {
		case err != nil:
			msg = err.Error()
		case !sameTuples(want, got.Tuples()):
			msg = fmt.Sprintf("tuples differ from naive\nnaive:  %v\npooled: %v", canonTuples(want), canonTuples(got.Tuples()))
		}
		for _, r := range st.owned {
			if msg == "" {
				msg = repeatedPair(r)
			}
		}
		st.Release()
		if msg != "" {
			return fmt.Sprintf("pooled, parallelism %d: %s", workers, msg)
		}
	}
	return ""
}

// TestDistinctWhereDuplicatesArise runs, through every executor the random
// suite drives, programs that do derive a pair twice: a compose over twenty
// paths a→b_i→c, neither side keyed (both as stored relations and as
// temporaries), unions of overlapping operands, and a Diff whose right operand
// is a filter's unhashed output.
func TestDistinctWhereDuplicatesArise(t *testing.T) {
	forceTinyMorsels(t)
	db := NewDB()
	for b := 10; b < 30; b++ {
		db.Insert("L", 1, b, "")
		db.Insert("R", b, 100, "c")
	}
	db.Insert("M", 1, 10, "")
	db.Insert("M", 2, 10, "")
	base := func(rel string) ra.Plan { return ra.Base{Rel: rel} }
	for name, stmts := range map[string][]ra.Stmt{
		"compose": {{Name: "s", Plan: ra.Compose{L: base("L"), R: base("R")}}},
		"compose of temporaries": {
			{Name: "l", Plan: ra.UnionAll{Kids: []ra.Plan{base("L"), base("M")}}},
			{Name: "r", Plan: ra.SelectVal{Child: base("R"), Val: "c"}},
			{Name: "s", Plan: ra.Compose{L: ra.Temp{Name: "l"}, R: ra.Temp{Name: "r"}}},
		},
		"union":         {{Name: "s", Plan: ra.UnionAll{Kids: []ra.Plan{base("L"), base("M"), base("L")}}}},
		"union of maps": {{Name: "s", Plan: ra.UnionAll{Kids: []ra.Plan{ra.IdentOf{Child: base("L")}, ra.IdentOf{Child: base("M"), OnF: true}}}}},
		"diff":          {{Name: "s", Plan: ra.Diff{L: base("L"), R: ra.Semijoin{L: base("L"), R: base("R")}}}},
	} {
		p := &ra.Program{Stmts: stmts, Result: "s"}
		want, err := NewNaiveExec(db).Run(p)
		if err != nil {
			t.Fatal(err)
		}
		se, par := NewExec(db), NewExec(db)
		par.Parallelism = 4
		for _, ex := range []*Exec{se, par} {
			got, err := ex.Run(p)
			if err != nil {
				t.Fatal(err)
			}
			if !sameTuples(want.Tuples(), got.Tuples()) {
				t.Errorf("%s, parallelism %d: tuples differ from naive\nnaive: %v\ngot:   %v", name, ex.Parallelism, canonTuples(want.Tuples()), canonTuples(got.Tuples()))
			}
		}
		if msg := distinctRuns(db, p, want.Tuples(), se, par); msg != "" {
			t.Errorf("%s: %s", name, msg)
		}
	}
}

// TestDifferentialFixPaths: constrained, path-tracking fixpoints on random
// graphs — identical (F, T) sets against the naive reference, and every
// tracked path must be a valid edge walk ending at T.
func TestDifferentialFixPaths(t *testing.T) {
	forceTinyMorsels(t)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(25)
		db := NewDB()
		for i := 0; i < 3*n; i++ {
			db.Insert("E", 1+r.Intn(n), 1+r.Intn(n), "")
		}
		for i := 0; i < 4; i++ {
			db.Insert("S", 1+r.Intn(n), 1+r.Intn(n), "")
		}
		fx := ra.Fix{Seed: ra.Base{Rel: "E"}, TrackPaths: true}
		switch r.Intn(4) {
		case 1:
			fx.Start = ra.Base{Rel: "S"}
		case 2:
			fx.End = ra.Base{Rel: "S"}
		case 3:
			fx.Start = ra.Base{Rel: "S"}
			fx.End = ra.Base{Rel: "S"}
		}
		p := &ra.Program{Stmts: []ra.Stmt{{Name: "result", Plan: fx}}, Result: "result"}

		want, err := NewNaiveExec(db).Run(p)
		if err != nil {
			return false
		}
		par := NewExec(db)
		par.Parallelism = 4
		got, err := par.Run(p)
		if err != nil {
			return false
		}
		if !sameTuples(want.Tuples(), got.Tuples()) {
			t.Logf("tuples differ (seed=%d)", seed)
			return false
		}
		edge := db.Rel("E")
		for _, tp := range got.Tuples() {
			path := got.PathOf(tp.F, tp.T)
			if len(path) == 0 || path[len(path)-1] != tp.T {
				t.Logf("bad path %v for %+v (seed=%d)", path, tp, seed)
				return false
			}
			prev := tp.F
			for _, node := range path {
				if !edge.Has(prev, node) {
					t.Logf("path %v uses non-edge %d→%d (seed=%d)", path, prev, node, seed)
					return false
				}
				prev = node
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
