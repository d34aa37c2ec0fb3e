package core

import (
	"strconv"

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
	tr *exTranslator
	*condensation
	star    []expath.Term // per component: its closure, ∅ until bound
	dMemo   []expath.Term // per (x, B): D(x → B), -1 until computed
	wMemo   []expath.Term // per (x, y): W(x, y), -1 until computed
	counter int
}

// condensation is the DTD graph's decomposition into strongly connected
// components, #doc a component of its own: the part of flatRec that depends
// on the DTD alone, by type number.
type condensation struct {
	sccOf   []int32   // per type
	members [][]int32 // per component, sorted
	cyclic  []bool    // component has an internal edge (size > 1 or self-loop)
}

func newFlatRec(tr *exTranslator) *flatRec {
	g := tr.g
	g.condOnce.Do(func() { g.cond = condense(g) })
	n := len(g.nodes)
	memo := make([]expath.Term, 2*n*n)
	for i := range memo {
		memo[i] = -1
	}
	return &flatRec{tr: tr, condensation: g.cond, star: make([]expath.Term, len(g.cond.members)),
		dMemo: memo[:n*n], wMemo: memo[n*n:]}
}

func condense(g *transGraph) *condensation {
	// Condensation over the augmented graph: #doc is its own component.
	comps := g.Graph.SCCs()
	f := &condensation{sccOf: make([]int32, len(g.nodes)), members: make([][]int32, len(comps)+1),
		cyclic: make([]bool, len(comps)+1)}
	for i, comp := range comps {
		for _, name := range comp {
			f.members[i] = append(f.members[i], g.num[name])
			f.sccOf[g.num[name]] = int32(i)
		}
		first := f.members[i][0]
		f.cyclic[i] = len(comp) > 1 || g.hasEdge(first, first)
	}
	f.sccOf[0], f.members[len(comps)] = int32(len(comps)), []int32{0}
	return f
}

// starOf returns the shared closure expression (⟨u₁→v₁⟩ ∪ … ∪ ⟨u_k→v_k⟩)* of
// a cyclic component — one source-typed edge step per intra-component DTD
// edge, the expression form of Example 3.5's per-cycle joins — binding the
// union to an equation on first use. Source typing keeps the closure inside
// the DTD's edge set even on documents of a containing DTD (§3.4).
func (f *flatRec) starOf(scc int32) expath.Term {
	if e := f.star[scc]; e != expath.ZeroTerm {
		return e
	}
	t, g, u := f.tr.t, f.tr.g, expath.ZeroTerm
	for _, src := range f.members[scc] {
		for _, dst := range f.members[scc] {
			if g.hasEdge(src, dst) {
				u = t.Union(u, t.Edge(g.nodes[src], g.nodes[dst]))
			}
		}
	}
	f.counter++
	f.star[scc] = t.Star(f.tr.bindVar("Xscc"+strconv.Itoa(f.counter), u, &f.tr.recVars))
	return f.star[scc]
}

// walks returns W(x, y): walks from an x-typed node to a y-typed node that
// stay within their (shared) component; ε included iff x == y. A non-empty
// walk is (edges)*/last-edge-into-y, with the final step edge-typed so only
// DTD parents of y conclude it.
func (f *flatRec) walks(x, y int32) expath.Term {
	k := x*int32(len(f.sccOf)) + y
	if e := f.wMemo[k]; e >= 0 {
		return e
	}
	t, g, e := f.tr.t, f.tr.g, expath.ZeroTerm
	if c := f.sccOf[x]; c == f.sccOf[y] {
		if x == y {
			e = expath.EpsTerm
		}
		if f.cyclic[c] {
			into := expath.ZeroTerm
			for _, src := range f.members[c] {
				if g.hasEdge(src, y) {
					into = t.Union(into, t.Edge(g.nodes[src], g.nodes[y]))
				}
			}
			if into != expath.ZeroTerm {
				e = t.Union(e, t.Cat(f.starOf(c), into))
			}
		}
	}
	f.wMemo[k] = e
	return e
}

// d computes D(x → B), memoized per (x, B) and bound to an equation when
// composite so diamond-shaped condensations stay polynomial.
func (f *flatRec) d(x, b int32) expath.Term {
	k := x*int32(len(f.sccOf)) + b
	if e := f.dMemo[k]; e >= 0 {
		return e
	}
	t := f.tr.t
	out := f.walks(x, b)
	// Leaving edges of x's component, grouped per (u, v).
	sx := f.sccOf[x]
	for _, u := range f.members[sx] {
		for _, v := range f.tr.g.kids[u] {
			if f.sccOf[v] == sx {
				continue
			}
			if rest := f.d(v, b); rest != expath.ZeroTerm {
				out = t.Union(out, t.Cat(f.walks(x, u), t.Cat(f.tr.label(v), rest)))
			}
		}
	}
	if !t.Trivial(out) {
		f.counter++
		out = f.tr.bindVar("Xrec"+strconv.Itoa(f.counter), out, &f.tr.recVars)
	}
	f.dMemo[k] = out
	return out
}
