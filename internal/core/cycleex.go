// Package core implements the paper's translation algorithms: CycleE
// (Tarjan's path-expression algorithm, Fig 6), CycleEX (its extended-XPath
// variant with variables, Fig 7), XPathToEXp with RewQual (Figs 8–9),
// EXpToSQL (Fig 10), the push-selection optimizer (§5.2), and the SQLGen-R
// baseline of [39] (§3.1) used as the experimental comparison point.
package core

import (
	"slices"
	"sync"

	"xpath2sql/internal/dtd"
	"xpath2sql/internal/expath"
)

// DocType is the reserved element-type name of the virtual document root.
// The translation graph adds it with a single edge to the DTD root so a
// query's leading label step (e.g. "dept" in dept//project) is handled
// uniformly as a child step from the document root.
const DocType = "#doc"

// transGraph is the DTD graph augmented with the virtual document root, with
// its types numbered and the facts translation reads of it as tables by type
// number: the children, the edges, the relations, and — each on first use —
// the reachable types and the component structure. #doc is type 0 and the
// DTD's types follow in sorted order, so number order is name order. It is
// safe for concurrent use: an Engine's queries share one (Schema).
type transGraph struct {
	*dtd.Graph
	nodes    []string // by type number
	num      map[string]int32
	kids     [][]int32 // the child types of each type, sorted; #doc's is the root
	edges    []bool    // edges[from*len(nodes)+to]
	reach    []reachList
	condOnce sync.Once
	cond     *condensation
}

func newTransGraph(g *dtd.Graph) *transGraph {
	n := len(g.Nodes) + 1
	t := &transGraph{Graph: g, nodes: append(append(make([]string, 0, n), DocType), g.Nodes...),
		num: make(map[string]int32, n), kids: make([][]int32, n), edges: make([]bool, n*n),
		reach: make([]reachList, n)}
	for i, name := range t.nodes {
		t.num[name] = int32(i)
	}
	t.kids[0] = []int32{t.num[g.Root]}
	for i, name := range g.Nodes {
		for _, e := range g.Out[name] {
			t.kids[i+1] = append(t.kids[i+1], t.num[e.To])
		}
		slices.Sort(t.kids[i+1])
	}
	for i, kids := range t.kids {
		for _, c := range kids {
			t.edges[i*n+int(c)] = true
		}
	}
	return t
}

type reachList struct {
	once  sync.Once
	types []int32
}

// hasEdge reports whether the graph under #doc has the edge from → to.
func (t *transGraph) hasEdge(from, to int32) bool { return t.edges[int(from)*len(t.nodes)+int(to)] }

// hasEdgeNamed is hasEdge by type name; a name that is no type has no edge.
func (t *transGraph) hasEdgeNamed(from, to string) bool {
	f, ok1 := t.num[from]
	c, ok2 := t.num[to]
	return ok1 && ok2 && t.hasEdge(f, c)
}

// reachOrSelf returns {A} ∪ {types reachable from A}: A first, the rest in
// order — the order fixes which rec(A, C) binds the next counter-named
// variable and the operand order of the unions built over it. The slice is
// shared; callers only read it.
func (t *transGraph) reachOrSelf(a int32) []int32 {
	r := &t.reach[a]
	r.once.Do(func() {
		seen := make([]bool, len(t.nodes))
		seen[a], r.types = true, []int32{a}
		for i := 0; i < len(r.types); i++ { // breadth first, the list its own queue
			for _, c := range t.kids[r.types[i]] {
				if !seen[c] {
					seen[c], r.types = true, append(r.types, c)
				}
			}
		}
		slices.Sort(r.types[1:])
	})
	return r.types
}

// tarjan is the dynamic program of Tarjan's algorithm (CycleE, Fig 6) over
// the translation graph: M[i,j,0] covers the empty path when i == j and the
// single edge (i,j), and M[i,j,k] = M[i,j,k-1] ∪
// M[i,k,k-1]/(M[k,k,k-1])*/M[k,j,k-1]. It returns M[·,·,n]: rec(A, B) for
// every pair. Each M[i,j,k] that differs from M[i,j,k-1] passes through
// bind. CycleE leaves it as it is, a variable-free expression of size Θ(2ⁿ)
// in the worst case (Lemma 4.1): the experimental strawman ("E"). CycleEX
// (Fig 7) binds it to the variable X[i,j,k] unless it is trivial (pruning
// rules 1–2 up front), so each equation has constant size — at most four
// variables — and all pairs take O(n³ log n) time (Theorem 4.1); one run
// serves every '//' in a query. The rest of the pruning waits for the final
// query (Fig 7, line 15).
func (tr *exTranslator) tarjan(bind func(i, j, k int, e expath.Term) expath.Term) [][]expath.Term {
	t, n := tr.t, len(tr.g.nodes)
	cur := make([][]expath.Term, n)
	for i := range cur {
		cur[i] = make([]expath.Term, n)
		for j := range cur[i] {
			e := expath.ZeroTerm
			if i == j {
				e = expath.EpsTerm
			}
			if tr.g.hasEdge(int32(i), int32(j)) {
				e = t.Union(e, tr.label(int32(j)))
			}
			cur[i][j] = bind(i, j, 0, e)
		}
	}
	for k := 0; k < n; k++ {
		next := make([][]expath.Term, n)
		loop := t.Star(cur[k][k])
		for i := range next {
			next[i] = make([]expath.Term, n)
			for j := range next[i] {
				through := t.Cat(cur[i][k], t.Cat(loop, cur[k][j]))
				if e := t.Union(cur[i][j], through); e != cur[i][j] {
					next[i][j] = bind(i, j, k+1, e)
				} else {
					next[i][j] = e
				}
			}
		}
		cur = next
	}
	return cur
}
