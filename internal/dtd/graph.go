package dtd

import (
	"sort"
)

// Edge is a parent/child edge of the DTD graph; Starred records whether the
// child occurs under a '*' in the parent's production (§2.1).
type Edge struct {
	From, To string
	Starred  bool
}

// Graph is the DTD graph G_D: one node per element type, one edge per
// parent/child relationship.
type Graph struct {
	Root  string
	Nodes []string // sorted
	Out   map[string][]Edge
	In    map[string][]Edge

	index map[string]int // node -> position in Nodes
}

// BuildGraph constructs the DTD graph of d.
func (d *DTD) BuildGraph() *Graph {
	g := &Graph{
		Root:  d.Root,
		Nodes: d.Types(),
		Out:   map[string][]Edge{},
		In:    map[string][]Edge{},
		index: map[string]int{},
	}
	for i, n := range g.Nodes {
		g.index[n] = i
	}
	for _, from := range g.Nodes {
		c := d.Prods[from]
		st := starred(c)
		for _, to := range subelements(c) {
			e := Edge{From: from, To: to, Starred: st[to]}
			g.Out[from] = append(g.Out[from], e)
			g.In[to] = append(g.In[to], e)
		}
	}
	return g
}

// NumNodes returns the node count n of the graph.
func (g *Graph) NumNodes() int { return len(g.Nodes) }

// NumEdges returns the edge count m of the graph.
func (g *Graph) NumEdges() int {
	m := 0
	for _, es := range g.Out {
		m += len(es)
	}
	return m
}

// HasNode reports whether typ is a node of the graph.
func (g *Graph) HasNode(typ string) bool {
	_, ok := g.index[typ]
	return ok
}

// HasEdge reports whether (from,to) is an edge.
func (g *Graph) HasEdge(from, to string) bool {
	for _, e := range g.Out[from] {
		if e.To == to {
			return true
		}
	}
	return false
}

// Children returns the child types of typ in sorted order.
func (g *Graph) Children(typ string) []string {
	out := make([]string, 0, len(g.Out[typ]))
	for _, e := range g.Out[typ] {
		out = append(out, e.To)
	}
	sort.Strings(out)
	return out
}

// Recursive reports whether the DTD is recursive, i.e. G_D is cyclic.
func (g *Graph) Recursive() bool { return len(g.CyclicSCCs()) > 0 }

// CyclicSCCs returns the strongly connected components that hold a cycle:
// those of two or more types, and single types with an edge to themselves.
func (g *Graph) CyclicSCCs() [][]string {
	var out [][]string
	for _, scc := range g.SCCs() {
		if len(scc) > 1 || g.HasEdge(scc[0], scc[0]) {
			out = append(out, scc)
		}
	}
	return out
}

// Induced returns the subgraph of the types keep admits and the edges among
// them; its root is g's if keep admits it, else "".
func (g *Graph) Induced(keep func(typ string) bool) *Graph {
	h := &Graph{Out: map[string][]Edge{}, In: map[string][]Edge{}, index: map[string]int{}}
	if keep(g.Root) {
		h.Root = g.Root
	}
	for _, n := range g.Nodes {
		if !keep(n) {
			continue
		}
		h.index[n] = len(h.Nodes)
		h.Nodes = append(h.Nodes, n)
		for _, e := range g.Out[n] {
			if keep(e.To) {
				h.Out[n] = append(h.Out[n], e)
				h.In[e.To] = append(h.In[e.To], e)
			}
		}
	}
	return h
}

// Reachable returns the set of types reachable from typ via one or more
// edges.
func (g *Graph) Reachable(typ string) map[string]bool {
	seen := map[string]bool{}
	var stack []string
	for _, e := range g.Out[typ] {
		if !seen[e.To] {
			seen[e.To] = true
			stack = append(stack, e.To)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.Out[n] {
			if !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	return seen
}

// SCCs returns the strongly connected components in reverse topological
// order (Tarjan's algorithm); each component's nodes are sorted.
func (g *Graph) SCCs() [][]string {
	n := len(g.Nodes)
	idx := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range idx {
		idx[i] = -1
	}
	var stack []int
	var comps [][]string
	counter := 0
	var strongconnect func(v int)
	strongconnect = func(v int) {
		idx[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for _, e := range g.Out[g.Nodes[v]] {
			w := g.index[e.To]
			if idx[w] == -1 {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && idx[w] < low[v] {
				low[v] = idx[w]
			}
		}
		if low[v] == idx[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, g.Nodes[w])
				if w == v {
					break
				}
			}
			sort.Strings(comp)
			comps = append(comps, comp)
		}
	}
	for v := 0; v < n; v++ {
		if idx[v] == -1 {
			strongconnect(v)
		}
	}
	return comps
}

// SimpleCycles enumerates all simple cycles of the graph using Johnson's
// algorithm. Each cycle is returned as its node sequence starting from the
// smallest node. The DTD graphs under study are small (§6: up to 9 cycles),
// so the exponential worst case is irrelevant.
func (g *Graph) SimpleCycles() [][]string {
	var cycles [][]string
	n := len(g.Nodes)
	adj := make([][]int, n)
	for i, node := range g.Nodes {
		for _, e := range g.Out[node] {
			adj[i] = append(adj[i], g.index[e.To])
		}
		sort.Ints(adj[i])
	}
	blocked := make([]bool, n)
	blockMap := make([]map[int]bool, n)
	var stack []int

	var unblock func(u int)
	unblock = func(u int) {
		blocked[u] = false
		for w := range blockMap[u] {
			delete(blockMap[u], w)
			if blocked[w] {
				unblock(w)
			}
		}
	}

	var circuit func(v, s int, subAdj [][]int) bool
	circuit = func(v, s int, subAdj [][]int) bool {
		found := false
		stack = append(stack, v)
		blocked[v] = true
		for _, w := range subAdj[v] {
			if w == s {
				cycle := make([]string, len(stack))
				for i, u := range stack {
					cycle[i] = g.Nodes[u]
				}
				cycles = append(cycles, cycle)
				found = true
			} else if !blocked[w] {
				if circuit(w, s, subAdj) {
					found = true
				}
			}
		}
		if found {
			unblock(v)
		} else {
			for _, w := range subAdj[v] {
				if blockMap[w] == nil {
					blockMap[w] = map[int]bool{}
				}
				blockMap[w][v] = true
			}
		}
		stack = stack[:len(stack)-1]
		return found
	}

	for s := 0; s < n; s++ {
		// Subgraph induced by nodes >= s.
		subAdj := make([][]int, n)
		for v := s; v < n; v++ {
			for _, w := range adj[v] {
				if w >= s {
					subAdj[v] = append(subAdj[v], w)
				}
			}
		}
		for i := range blocked {
			blocked[i] = false
			blockMap[i] = nil
		}
		stack = stack[:0]
		circuit(s, s, subAdj)
	}
	return cycles
}

// NumSimpleCycles returns the simple-cycle count c (the paper's "n-cycle
// graph" classification).
func (g *Graph) NumSimpleCycles() int { return len(g.SimpleCycles()) }

// ContainedIn reports whether g is contained in h (§2.1): g's graph is a
// subgraph of h's under the identity mapping on type names, with g's root
// mapped to h's root.
func (g *Graph) ContainedIn(h *Graph) bool {
	if g.Root != h.Root {
		return false
	}
	for _, node := range g.Nodes {
		if !h.HasNode(node) {
			return false
		}
	}
	for _, es := range g.Out {
		for _, e := range es {
			if !h.HasEdge(e.From, e.To) {
				return false
			}
		}
	}
	return true
}
