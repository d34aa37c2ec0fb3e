package core_test

import (
	"fmt"
	"strings"
	"testing"

	"xpath2sql/internal/core"
	"xpath2sql/internal/ra"
	"xpath2sql/internal/workload"
	"xpath2sql/internal/xpath"
)

// gedmlChain is a k-step path down the Obje → Sour → Data → Note → Even cycle
// of the GedML DTD. With mixed set, every third step is a descendant step
// carrying a constant of its own — Even/Obje/Sour//Data[text()='k2']/… — so
// no two steps translate to one shared sub-query and the plan grows with k in
// size; without, every step is a child step and the plan is one join chain
// that grows with k in depth.
func gedmlChain(k int, mixed bool) xpath.Path {
	cycle := []string{"Obje", "Sour", "Data", "Note", "Even"}
	var b strings.Builder
	b.WriteString("Even")
	for i := 0; i < k; i++ {
		if mixed && i%3 == 2 {
			fmt.Fprintf(&b, "//%s[text()='k%d']", cycle[i%len(cycle)], i)
		} else {
			b.WriteString("/" + cycle[i%len(cycle)])
		}
	}
	return xpath.MustParse(b.String())
}

// TestOptimizeRenderLinear counts, not times: the optimizer and the SQL
// renderer do work proportional to the plan they are given. For chain queries
// of k steps, the allocations of Optimize + RenderSQL and the plans the
// common-sub-query pass numbers at 4k steps are at most 4.5× those at k. A
// pass that prints a subtree per node, or a renderer that re-indents an
// operand per enclosing operator, grows with size × depth: on the child-step
// chain, whose plan is as deep as it is long, the code before PR 24 allocated
// ×6.2 from k = 4 to 16 and ×10.8 from 16 to 64 (EXPERIMENTS.md).
func TestOptimizeRenderLinear(t *testing.T) {
	d := workload.GedML()
	measure := func(k int, mixed bool) (allocs, lookups float64) {
		eq, err := core.XPathToEXp(gedmlChain(k, mixed), d, core.RecFlat)
		if err != nil {
			t.Fatal(err)
		}
		opts := core.DefaultSQLOptions()
		opts.PushSelections = false
		unoptimized, err := core.EXpToSQL(eq, opts)
		if err != nil {
			t.Fatal(err)
		}
		allocs = testing.AllocsPerRun(10, func() {
			p := cloneProgram(unoptimized)
			core.Optimize(p)
			if _, err := p.RenderSQL(ra.SQLRenderOptions{}); err != nil {
				t.Fatal(err)
			}
		})
		p := cloneProgram(unoptimized)
		core.PushSelections(p)
		in := ra.NewInterner()
		core.ExtractCommonWith(p, in)
		return allocs, float64(in.Lookups)
	}
	for _, mixed := range []bool{false, true} {
		a4, l4 := measure(4, mixed)
		a16, l16 := measure(16, mixed)
		a64, l64 := measure(64, mixed)
		t.Logf("mixed=%v: allocs of Optimize+RenderSQL: k=4 %.0f, k=16 %.0f (×%.2f), k=64 %.0f (×%.2f)", mixed, a4, a16, a16/a4, a64, a64/a16)
		t.Logf("mixed=%v: plans numbered by ExtractCommon: k=4 %.0f, k=16 %.0f (×%.2f), k=64 %.0f (×%.2f)", mixed, l4, l16, l16/l4, l64, l64/l16)
		for _, r := range []struct {
			what     string
			at, at4k float64
		}{
			{"allocations, k=4→16", a4, a16}, {"allocations, k=16→64", a16, a64},
			{"plans numbered, k=4→16", l4, l16}, {"plans numbered, k=16→64", l16, l64},
		} {
			if r.at4k > 4.5*r.at {
				t.Errorf("mixed=%v: %s: %.0f → %.0f is ×%.2f, want ≤ ×4.5", mixed, r.what, r.at, r.at4k, r.at4k/r.at)
			}
		}
	}
}

// TestTranslateLinear counts the allocations of a translation on the same
// chains, one Schema built beforehand: XPathToEXp (RecFlat) and the whole
// Schema.Translate are at most 4.5× as many at 4k steps as at k. A memo key
// that prints its sub-query, or a union that prints its operands, grows with
// size × depth instead: the code before the translator numbered its
// sub-queries and terms allocated ×5.9 (XPathToEXp) and ×5.6 (Translate) from
// k = 16 to 64 on the child-step chain (EXPERIMENTS.md).
func TestTranslateLinear(t *testing.T) {
	d := workload.GedML()
	s := core.NewSchema(d)
	measure := func(k int, mixed bool) (exp, all float64) {
		q := gedmlChain(k, mixed)
		exp = testing.AllocsPerRun(10, func() {
			if _, err := core.XPathToEXp(q, d, core.RecFlat); err != nil {
				t.Fatal(err)
			}
		})
		all = testing.AllocsPerRun(10, func() {
			if _, err := s.Translate(q, core.DefaultOptions()); err != nil {
				t.Fatal(err)
			}
		})
		return exp, all
	}
	for _, mixed := range []bool{false, true} {
		e4, a4 := measure(4, mixed)
		e16, a16 := measure(16, mixed)
		e64, a64 := measure(64, mixed)
		t.Logf("mixed=%v: allocs of XPathToEXp: k=4 %.0f, k=16 %.0f (×%.2f), k=64 %.0f (×%.2f)", mixed, e4, e16, e16/e4, e64, e64/e16)
		t.Logf("mixed=%v: allocs of Translate: k=4 %.0f, k=16 %.0f (×%.2f), k=64 %.0f (×%.2f)", mixed, a4, a16, a16/a4, a64, a64/a16)
		for _, r := range []struct {
			what     string
			at, at4k float64
		}{
			{"XPathToEXp, k=4→16", e4, e16}, {"XPathToEXp, k=16→64", e16, e64},
			{"Translate, k=4→16", a4, a16}, {"Translate, k=16→64", a16, a64},
		} {
			if r.at4k > 4.5*r.at {
				t.Errorf("mixed=%v: allocations of %s: %.0f → %.0f is ×%.2f, want ≤ ×4.5", mixed, r.what, r.at, r.at4k, r.at4k/r.at)
			}
		}
	}
}
