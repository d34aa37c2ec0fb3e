// Package core implements the paper's translation algorithms: CycleE
// (Tarjan's path-expression algorithm, Fig 6), CycleEX (its extended-XPath
// variant with variables, Fig 7), XPathToEXp with RewQual (Figs 8–9),
// EXpToSQL (Fig 10), the push-selection optimizer (§5.2), and the SQLGen-R
// baseline of [39] (§3.1) used as the experimental comparison point.
package core

import (
	"fmt"
	"sort"
	"sync"

	"xpath2sql/internal/dtd"
	"xpath2sql/internal/expath"
)

// DocType is the reserved element-type name of the virtual document root.
// The translation graph adds it with a single edge to the DTD root so a
// query's leading label step (e.g. "dept" in dept//project) is handled
// uniformly as a child step from the document root.
const DocType = "#doc"

// transGraph is the DTD graph augmented with the virtual document root, plus
// what translation derives from it alone, each computed on first use. It is
// safe for concurrent use: an Engine's queries share one (Schema).
type transGraph struct {
	*dtd.Graph
	nodes    []string // #doc first, then the DTD's nodes (Tarjan numbering)
	num      map[string]int
	reach    []reachList // reachOrSelf of nodes[i]
	condOnce sync.Once
	cond     *condensation
}

func newTransGraph(g *dtd.Graph) *transGraph {
	t := &transGraph{Graph: g, num: map[string]int{}}
	t.nodes = append(t.nodes, DocType)
	t.nodes = append(t.nodes, g.Nodes...)
	for i, n := range t.nodes {
		t.num[n] = i
	}
	t.reach = make([]reachList, len(t.nodes))
	return t
}

type reachList struct {
	once  sync.Once
	types []string
}

// hasEdge extends the DTD graph with the #doc → root edge.
func (t *transGraph) hasEdge(from, to string) bool {
	if from == DocType {
		return to == t.Root
	}
	if to == DocType {
		return false
	}
	return t.Graph.HasEdge(from, to)
}

// children lists the child types of a node including the virtual edge.
func (t *transGraph) children(from string) []string {
	if from == DocType {
		return []string{t.Root}
	}
	return t.Graph.Children(from)
}

// reachOrSelf returns {A} ∪ {types reachable from A}: A first, the rest
// sorted — the order fixes which rec(A, C) binds the next counter-named
// variable and the operand order of the unions built over it. The slice is
// shared; callers only read it.
func (t *transGraph) reachOrSelf(a string) []string {
	i, ok := t.num[a]
	if !ok {
		return []string{a}
	}
	r := &t.reach[i]
	r.once.Do(func() {
		from := a
		r.types = []string{a}
		if a == DocType {
			from = t.Root
			r.types = append(r.types, t.Root)
		}
		for c := range t.Graph.Reachable(from) {
			if c != from {
				r.types = append(r.types, c)
			}
		}
		sort.Strings(r.types[1:])
	})
	return r.types
}

// RecSet is the output of CycleEX: a shared equation system from which
// rec(A, B) — the extended-XPath representation of all DTD paths from A to
// B — is a single variable reference. One CycleEX run serves every '//' in a
// query (Theorem 4.1).
type RecSet struct {
	// Eqs is the full equation list in dependency order; the final query is
	// assembled from these and pruned to the variables actually used.
	Eqs []expath.Equation
	// final[A][B] is the expression (usually a Var) denoting all paths from
	// A to B, ε included when A == B.
	final map[string]map[string]expath.Expr
}

// Rec returns the expression denoting all paths from A to B (Zero when B is
// not reachable-or-self from A).
func (r *RecSet) Rec(a, b string) expath.Expr {
	if m, ok := r.final[a]; ok {
		if e, ok2 := m[b]; ok2 {
			return e
		}
	}
	return expath.Zero{}
}

func recVarName(i, j, k int) string { return fmt.Sprintf("X[%d,%d,%d]", i, j, k) }

// CycleEX computes rec(A, B) for all pairs of the translation graph in
// O(n³ log n) time (Fig 7): the dynamic program of Tarjan's algorithm with
// every intermediate expression M[i,j,k] replaced by a variable, so each
// equation has constant size. The returned equations still contain trivial
// and ∅ bindings; the caller prunes after assembling the final query
// (Fig 7, line 15 is implemented by expath's Prune).
func CycleEX(t *transGraph) *RecSet {
	n := len(t.nodes)
	eqs := make([]expath.Equation, 0, n*n*(n+1))
	// cur[i][j] is the expression to reference M[i,j,k] at the current k:
	// a Var for composite bindings, or the trivial expression inlined.
	cur := make([][]expath.Expr, n)
	bind := func(i, j, k int, e expath.Expr) expath.Expr {
		switch e.(type) {
		case expath.Zero, expath.Eps, expath.Label, expath.Edge, expath.Var:
			// Trivial: inline, no equation (pruning rules 1–2 up front).
			return e
		}
		x := recVarName(i, j, k)
		eqs = append(eqs, expath.Equation{X: x, E: e})
		return expath.Var{Name: x}
	}
	// Initialization (Fig 7 lines 1–7): M[i,j,0] covers the empty path when
	// i == j and the single edge (i,j).
	for i := 0; i < n; i++ {
		cur[i] = make([]expath.Expr, n)
		for j := 0; j < n; j++ {
			var e expath.Expr = expath.Zero{}
			if i == j {
				e = expath.Eps{}
			}
			if t.hasEdge(t.nodes[i], t.nodes[j]) {
				e = expath.MkUnion(e, expath.Label{Name: t.nodes[j]})
			}
			cur[i][j] = bind(i, j, 0, e)
		}
	}
	// Expansion (lines 8–13): M[i,j,k] = M[i,j,k-1] ∪
	// M[i,k,k-1]/(M[k,k,k-1])*/M[k,j,k-1]. Each right-hand side references
	// at most four variables.
	for k := 0; k < n; k++ {
		next := make([][]expath.Expr, n)
		loop := expath.MkStar(cur[k][k])
		for i := 0; i < n; i++ {
			next[i] = make([]expath.Expr, n)
			for j := 0; j < n; j++ {
				through := expath.MkCat(cur[i][k], expath.MkCat(loop, cur[k][j]))
				e := expath.MkUnion(cur[i][j], through)
				// Avoid rebinding when unchanged.
				if e.String() == cur[i][j].String() {
					next[i][j] = cur[i][j]
					continue
				}
				next[i][j] = bind(i, j, k+1, e)
			}
		}
		cur = next
	}
	rs := &RecSet{Eqs: eqs, final: map[string]map[string]expath.Expr{}}
	for i, a := range t.nodes {
		rs.final[a] = map[string]expath.Expr{}
		for j, b := range t.nodes {
			rs.final[a][b] = cur[i][j]
		}
	}
	return rs
}

// CycleE is Tarjan's algorithm unmodified (Fig 6): it returns a single
// variable-free regular-XPath expression representing all paths from A to B.
// Expression size is Θ(2ⁿ) in the worst case (Lemma 4.1); it exists as the
// experimental strawman ("E") and for differential testing against CycleEX.
func CycleE(t *transGraph, a, b string) expath.Expr {
	n := len(t.nodes)
	cur := make([][]expath.Expr, n)
	for i := 0; i < n; i++ {
		cur[i] = make([]expath.Expr, n)
		for j := 0; j < n; j++ {
			var e expath.Expr = expath.Zero{}
			if i == j {
				e = expath.Eps{}
			}
			if t.hasEdge(t.nodes[i], t.nodes[j]) {
				e = expath.MkUnion(e, expath.Label{Name: t.nodes[j]})
			}
			cur[i][j] = e
		}
	}
	for k := 0; k < n; k++ {
		next := make([][]expath.Expr, n)
		loop := expath.MkStar(cur[k][k])
		for i := 0; i < n; i++ {
			next[i] = make([]expath.Expr, n)
			for j := 0; j < n; j++ {
				through := expath.MkCat(cur[i][k], expath.MkCat(loop, cur[k][j]))
				next[i][j] = expath.MkUnion(cur[i][j], through)
			}
		}
		cur = next
	}
	return cur[t.num[a]][t.num[b]]
}
