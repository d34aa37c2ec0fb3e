package rdb

import (
	"math/rand"
	"slices"
	"testing"

	"xpath2sql/internal/difftest"
	"xpath2sql/internal/ra"
)

// The two drivers of the operator kernels must agree by construction: a
// ViewState's full materialization and an Exec run apply the same kernel to
// the same operands, so they produce the same answer with the same work
// counters — not merely the same answer. A copy of an operator that drifts
// (a missed fast path, a different dedup, a forgotten counter) shows up here
// as a counter diff long before it shows up as a wrong answer.
//
// Two shapes differ on purpose. Exec computes only what an operator's
// consumer reads of it, where a view, whose Δ rules read every operator,
// builds each whole: l ⋈ DescScan when every row of l has one F (Exec scans
// the outermost sources, Stats.StairScans), and the right operand of a
// semijoin or antijoin (Exec derives its F column alone, Stats.ExistsProbes).
// There Exec does no more of any kind of work than the build; elsewhere,
// exactly as much.

// kernelWork projects the counters both drivers account for. StmtsRun is the
// pull driver's alone (a view has no statements to run) and Morsels is zero
// on these serial runs.
func kernelWork(s Stats) Stats {
	return Stats{
		Joins: s.Joins, Unions: s.Unions, LFPs: s.LFPs, LFPIters: s.LFPIters,
		TuplesOut: s.TuplesOut, DescScans: s.DescScans,
	}
}

// noMoreWork reports whether a is at most b in every counter kernelWork keeps.
func noMoreWork(a, b Stats) bool {
	return a.Joins <= b.Joins && a.Unions <= b.Unions && a.LFPs <= b.LFPs && a.LFPIters <= b.LFPIters &&
		a.TuplesOut <= b.TuplesOut && a.DescScans <= b.DescScans
}

// checkBuildMatchesExec builds (then rebuilds) a view of p over db and
// compares answer and work against one Exec run under mode. It reports
// whether the view was tree-maintained — an opaque view runs an Exec itself
// and proves nothing — and the Exec run's counters.
func checkBuildMatchesExec(t *testing.T, db *DB, p *ra.Program, mode IntervalMode, label string) (bool, Stats) {
	t.Helper()
	vs, err := BuildViewState(db, p)
	if err != nil {
		t.Fatalf("%s: build: %v\n%s", label, err, p)
	}
	if !vs.Insertable() {
		return false, Stats{}
	}
	ex := NewExec(db)
	ex.IntervalMode = mode
	rel, err := ex.Run(p)
	if err != nil {
		t.Fatalf("%s: exec: %v\n%s", label, err, p)
	}
	want := rel.AnswerIDs()
	partial := ex.Stats.StairScans+ex.Stats.ExistsProbes > 0
	check := func(phase string, got Stats) {
		t.Helper()
		if !slices.Equal(vs.AnswerIDs(), want) {
			t.Fatalf("%s (%s): answers differ\nview: %v\nexec: %v\n%s", label, phase, vs.AnswerIDs(), want, p)
		}
		if w := kernelWork(ex.Stats); partial && !noMoreWork(w, kernelWork(got)) || !partial && w != kernelWork(got) {
			t.Fatalf("%s (%s): work differs (exec answered in part: %v)\nview: %+v\nexec: %+v\n%s", label, phase, partial, kernelWork(got), w, p)
		}
	}
	check("build", vs.FullStats)
	before := vs.FullStats
	added, removed, err := vs.Rebuild(db)
	if err != nil {
		t.Fatalf("%s: rebuild: %v", label, err)
	}
	if len(added)+len(removed) != 0 {
		t.Fatalf("%s: rebuild on an unchanged database published (+%v, -%v)", label, added, removed)
	}
	check("rebuild", vs.FullStats.Minus(before))
	return true, ex.Stats
}

func TestViewBuildMatchesExec(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	maintained := 0
	var partial Stats // of the Exec runs that answered in part
	// Random graphs, no interval encoding: frontier pruning is out of play
	// (and pinned off), DescScan does not occur.
	for i := 0; i < 300; i++ {
		nRels := 1 + r.Intn(3)
		db := randDB(r, 3+r.Intn(20), nRels)
		p := difftest.Program(r, nRels, graphOps)
		if i%2 == 1 {
			// graphOps programs mostly leave the maintainable fragment; keep the
			// sample dense with programs drawn inside it.
			p = difftest.Program(r, nRels, insertOps)
		}
		if ok, st := checkBuildMatchesExec(t, db, p, IntervalOff, "graph"); ok {
			maintained++
			partial.ExistsProbes += st.ExistsProbes
		}
	}
	// Interval-encoded forests with a matching fingerprint: both drivers
	// answer DescScan with the interval kernel.
	scans := 0
	for i := 0; i < 200; i++ {
		nRels := 1 + r.Intn(3)
		db := makeForest(r, 6+r.Intn(24), 1+r.Intn(3), nRels)
		p := treeProgram(r, nRels, r.Intn(2) == 0)
		if ok, st := checkBuildMatchesExec(t, db, p, IntervalAuto, "forest"); ok {
			maintained++
			scans += p.Count().DescScan
			partial.StairScans += st.StairScans
			partial.ExistsProbes += st.ExistsProbes
		}
	}
	if maintained < 200 || scans == 0 || partial.StairScans == 0 || partial.ExistsProbes == 0 {
		t.Fatalf("sample too thin: %d tree-maintained views, %d descendant scans, %d staircase scans, %d existence probes",
			maintained, scans, partial.StairScans, partial.ExistsProbes)
	}
}

// TestUnionOfOneFDedupsOnT: a union whose operands' rows all hold one F — the
// desc ∪ self of a rooted // step — dedups on a set of its Ts and hashes no
// pair; where the Fs differ, or the Ts span too wide for a set, the pair set
// dedups as before. The answer is the set union either way, pooled or not.
func TestUnionOfOneFDedupsOnT(t *testing.T) {
	for _, c := range []struct {
		name   string
		f, far int32 // the F of B's rows, and a T of B's far from the rest
		hashes bool
	}{
		{"one F", 0, 0, false},
		{"two Fs", 1, 0, true},
		{"one F, Ts spanning wide", 0, 1 << 28, true},
	} {
		db := NewDB()
		want := map[[2]int32]bool{}
		for k := int32(1); k <= 60; k++ {
			if k <= 40 {
				db.Rel("A").addRow(row{t: k})
				want[[2]int32{0, k}] = true
			}
			if k >= 20 {
				w := row{f: c.f, t: k}
				if k == 60 && c.far != 0 {
					w.t = c.far
				}
				db.Rel("B").addRow(w)
				want[[2]int32{w.f, w.t}] = true
			}
		}
		p := prog(ra.UnionAll{Kids: []ra.Plan{ra.Base{Rel: "A"}, ra.Base{Rel: "B"}}})
		fresh, err := NewExec(db).Run(p)
		if err != nil {
			t.Fatal(err)
		}
		st := AcquireState(db)
		pooled, err := st.Exec().Run(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, out := range []*Relation{fresh, pooled} {
			got := map[[2]int32]bool{}
			for _, w := range out.rows {
				if got[[2]int32{w.f, w.t}] = true; !want[[2]int32{w.f, w.t}] {
					t.Fatalf("%s: (%d, %d) is in no operand", c.name, w.f, w.t)
				}
			}
			if out.Len() != len(want) || len(got) != len(want) {
				t.Fatalf("%s: %d rows, %d distinct, want the %d of the set union", c.name, out.Len(), len(got), len(want))
			}
		}
		if inserts, _ := st.ReleaseCounted(); (inserts > 0) != c.hashes {
			t.Fatalf("%s: %d pair-set inserts, want some: %v", c.name, inserts, c.hashes)
		}
	}
}
