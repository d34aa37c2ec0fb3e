package core

import (
	"xpath2sql/internal/dtd"
	"xpath2sql/internal/expath"
)

// RecPairOps reports, for one ordered element-type pair (A, B), the operator
// counts of the extended-XPath representation of all A→B paths as produced
// by CycleE and by CycleEX — the quantities aggregated in Table 5 of the
// paper (LFP = Kleene closures, All = every operator).
type RecPairOps struct {
	A, B    string
	CycleE  expath.OpCounts
	CycleEX expath.OpCounts
}

// AllRecPairs enumerates every ordered pair (A, B) of distinct element types
// with B reachable from A (the pairs of §6.5) and computes both
// representations' operator counts. CycleEX counts are taken after the
// pruning of Fig 7 line 15 (unused and trivial equations removed).
func AllRecPairs(d *dtd.DTD) []RecPairOps {
	g := d.BuildGraph()
	tg := newTransGraph(g)
	x, e := newExTranslator(tg, RecCycleEX), newExTranslator(tg, RecCycleE)
	var out []RecPairOps
	for _, a := range g.Nodes {
		reach := g.Reachable(a)
		for _, b := range g.Nodes {
			if a == b || !reach[b] {
				continue
			}
			i, j := tg.num[a], tg.num[b]
			qx, _ := x.t.Prune(x.recVars, x.recs[i][j])
			out = append(out, RecPairOps{
				A:       a,
				B:       b,
				CycleE:  (&expath.Query{Result: e.t.Expr(e.rec(i, j))}).CountOps(),
				CycleEX: qx.CountOps(),
			})
		}
	}
	return out
}
