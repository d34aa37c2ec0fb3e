package core

import (
	"fmt"
	"sort"

	"xpath2sql/internal/expath"
)

// flatRec computes rec(A, B) in the flat form the paper's generated SQL
// uses (§3.2, Example 3.5): "E takes a union of all matching simple cycles
// of // and E* then applies the Kleene closure to the union". Concretely,
// walks within a strongly-connected component S are expressed with a single
// Kleene closure over the union of S's child steps, and cross-component
// paths follow the (acyclic) condensation DAG:
//
//	W(x, y)  =  [ε if x = y]  ∪  (t₁ ∪ … ∪ t_k)* / y     (x, y ∈ S)
//	D(x → B) =  W(x, B)  ∪  ⋃ { W(x, u) / v / D(v → B) : edge (u, v) leaving S }
//
// The per-SCC star is bound once and shared, so each rec(A, B) contains one
// LFP per component on the path — the single-Φ plans of Example 3.5 that
// the push-selection optimization (§5.2) can seed from the query prefix.
// Contrast CycleEX (Fig 7), whose nested equations give the formal
// polynomial bound; both define the same path language.
type flatRec struct {
	g *transGraph
	*condensation
	eqs []expath.Equation

	starVar map[int]expath.Expr    // per-SCC closure expression
	dMemo   map[string]expath.Expr // "x→B" -> expression for D(x → B)
	counter int
}

// condensation is the DTD graph's decomposition into strongly connected
// components, #doc a component of its own: the part of flatRec that depends
// on the DTD alone.
type condensation struct {
	sccOf   map[string]int
	members map[int][]string
	cyclic  map[int]bool // component has an internal edge (size > 1 or self-loop)
}

func newFlatRec(g *transGraph) *flatRec {
	g.condOnce.Do(func() { g.cond = condense(g) })
	return &flatRec{g: g, condensation: g.cond, starVar: map[int]expath.Expr{}, dMemo: map[string]expath.Expr{}}
}

func condense(g *transGraph) *condensation {
	f := &condensation{sccOf: map[string]int{}, members: map[int][]string{}, cyclic: map[int]bool{}}
	// Condensation over the augmented graph: #doc is its own component.
	comps := g.Graph.SCCs()
	for i, comp := range comps {
		f.members[i] = comp
		for _, n := range comp {
			f.sccOf[n] = i
		}
		if len(comp) > 1 {
			f.cyclic[i] = true
		} else if g.Graph.HasEdge(comp[0], comp[0]) {
			f.cyclic[i] = true
		}
	}
	doc := len(comps)
	f.sccOf[DocType] = doc
	f.members[doc] = []string{DocType}
	return f
}

// star returns the shared closure expression (⟨u₁→v₁⟩ ∪ … ∪ ⟨u_k→v_k⟩)* of
// a cyclic component — one source-typed edge step per intra-component DTD
// edge, the expression form of Example 3.5's per-cycle joins — binding the
// union to an equation on first use. Source typing keeps the closure inside
// the DTD's edge set even on documents of a containing DTD (§3.4).
func (f *flatRec) star(scc int) expath.Expr {
	if e, ok := f.starVar[scc]; ok {
		return e
	}
	members := append([]string{}, f.members[scc]...)
	sort.Strings(members)
	var u expath.Expr = expath.Zero{}
	for _, src := range members {
		for _, dst := range members {
			if f.g.hasEdge(src, dst) {
				u = expath.MkUnion(u, expath.Edge{From: src, To: dst})
			}
		}
	}
	f.counter++
	x := fmt.Sprintf("Xscc%d", f.counter)
	f.eqs = append(f.eqs, expath.Equation{X: x, E: u})
	e := expath.MkStar(expath.Var{Name: x})
	f.starVar[scc] = e
	return e
}

// walks returns W(x, y): walks from an x-typed node to a y-typed node that
// stay within their (shared) component; ε included iff x == y. A non-empty
// walk is (edges)*/last-edge-into-y, with the final step edge-typed so only
// DTD parents of y conclude it.
func (f *flatRec) walks(x, y string) expath.Expr {
	if f.sccOf[x] != f.sccOf[y] {
		return expath.Zero{}
	}
	var e expath.Expr = expath.Zero{}
	if x == y {
		e = expath.Eps{}
	}
	if f.cyclic[f.sccOf[x]] {
		var into expath.Expr = expath.Zero{}
		for _, src := range f.members[f.sccOf[x]] {
			if f.g.hasEdge(src, y) {
				into = expath.MkUnion(into, expath.Edge{From: src, To: y})
			}
		}
		if _, zero := into.(expath.Zero); !zero {
			e = expath.MkUnion(e, expath.MkCat(f.star(f.sccOf[x]), into))
		}
	}
	return e
}

// Rec returns the expression for all DTD paths from a to b.
func (f *flatRec) Rec(a, b string) expath.Expr {
	if !f.g.Graph.HasNode(a) && a != DocType {
		return expath.Zero{}
	}
	if !f.g.Graph.HasNode(b) && b != DocType {
		return expath.Zero{}
	}
	return f.d(a, b)
}

// d computes D(x → B), memoized per (x, B) and bound to an equation when
// composite so diamond-shaped condensations stay polynomial.
func (f *flatRec) d(x, b string) expath.Expr {
	key := x + "\x00" + b
	if e, ok := f.dMemo[key]; ok {
		return e
	}
	var out expath.Expr = f.walks(x, b)
	// Leaving edges of x's component, grouped per (u, v).
	sx := f.sccOf[x]
	for _, u := range f.members[sx] {
		var outs []string
		if u == DocType {
			outs = []string{f.g.Root}
		} else {
			outs = f.g.Graph.Children(u)
		}
		for _, v := range outs {
			if f.sccOf[v] == sx {
				continue
			}
			rest := f.d(v, b)
			if _, zero := rest.(expath.Zero); zero {
				continue
			}
			seg := expath.MkCat(f.walks(x, u), expath.MkCat(expath.Label{Name: v}, rest))
			out = expath.MkUnion(out, seg)
		}
	}
	out = f.bind(out)
	f.dMemo[key] = out
	return out
}

func (f *flatRec) bind(e expath.Expr) expath.Expr {
	switch e.(type) {
	case expath.Zero, expath.Eps, expath.Label, expath.Edge, expath.Var:
		return e
	}
	f.counter++
	x := fmt.Sprintf("Xrec%d", f.counter)
	f.eqs = append(f.eqs, expath.Equation{X: x, E: e})
	return expath.Var{Name: x}
}
