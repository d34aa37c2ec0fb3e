package dtd_test

import (
	"testing"
	"testing/quick"

	"xpath2sql/internal/difftest"
	"xpath2sql/internal/dtd"
)

// bruteCycles counts simple cycles by plain DFS enumeration, as an
// independent reference for Johnson's algorithm.
func bruteCycles(g *dtd.Graph) int {
	idx := map[string]int{}
	for i, n := range g.Nodes {
		idx[n] = i
	}
	n := len(g.Nodes)
	adj := make([][]int, n)
	for i, node := range g.Nodes {
		for _, e := range g.Out[node] {
			adj[i] = append(adj[i], idx[e.To])
		}
	}
	count := 0
	inPath := make([]bool, n)
	var dfs func(start, v int)
	dfs = func(start, v int) {
		for _, w := range adj[v] {
			if w < start {
				continue
			}
			if w == start {
				count++
				continue
			}
			if !inPath[w] {
				inPath[w] = true
				dfs(start, w)
				inPath[w] = false
			}
		}
	}
	for s := 0; s < n; s++ {
		inPath[s] = true
		dfs(s, s)
		inPath[s] = false
	}
	return count
}

// TestSimpleCyclesMatchesBruteForce: Johnson's enumeration equals the DFS
// count on random graphs.
func TestSimpleCyclesMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := difftest.Seed(seed)
		g := difftest.GraphDTD(r, 2+r.Intn(5), false).BuildGraph()
		return g.NumSimpleCycles() == bruteCycles(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSCCsPartition: every node appears in exactly one component, and nodes
// in the same non-trivial component reach each other.
func TestSCCsPartition(t *testing.T) {
	f := func(seed int64) bool {
		r := difftest.Seed(seed)
		g := difftest.GraphDTD(r, 2+r.Intn(6), false).BuildGraph()
		seen := map[string]int{}
		for _, comp := range g.SCCs() {
			for _, n := range comp {
				seen[n]++
			}
			if len(comp) > 1 {
				for _, a := range comp {
					reach := g.Reachable(a)
					for _, b := range comp {
						if a != b && !reach[b] {
							return false
						}
					}
				}
			}
		}
		for _, n := range g.Nodes {
			if seen[n] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestRecursiveIffCycles: Recursive() agrees with NumSimpleCycles() > 0.
func TestRecursiveIffCycles(t *testing.T) {
	f := func(seed int64) bool {
		r := difftest.Seed(seed)
		g := difftest.GraphDTD(r, 2+r.Intn(6), false).BuildGraph()
		return g.Recursive() == (g.NumSimpleCycles() > 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestContainmentReflexiveTransitive: containment is a preorder under
// edge-subset construction.
func TestContainmentReflexiveTransitive(t *testing.T) {
	f := func(seed int64) bool {
		r := difftest.Seed(seed)
		g := difftest.GraphDTD(r, 3+r.Intn(4), false).BuildGraph()
		return g.ContainedIn(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// FuzzParse: a DTD Parse accepts prints in a form that parses again, to the
// same print and the same fingerprint.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"<!ELEMENT a (b*, c?)>\n<!ELEMENT b (#PCDATA)>\n<!ELEMENT c (a | b)+>",
		"<!DOCTYPE r [<!ELEMENT r ANY>]>",
		"<!ELEMENT a EMPTY>",
		"<!-- root: x -->\n<!ELEMENT x (y)*>\n<!ELEMENT y (x, (#PCDATA))>",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		d, err := dtd.Parse(in)
		if err != nil {
			return
		}
		s := d.String()
		d2, err := dtd.Parse(s)
		if err != nil {
			t.Fatalf("%q prints as %q, which does not parse: %v", in, s, err)
		}
		if s2 := d2.String(); s2 != s || d2.Fingerprint() != d.Fingerprint() {
			t.Fatalf("%q prints as %q, which prints as %q (fingerprints %s, %s)", in, s, s2, d.Fingerprint(), d2.Fingerprint())
		}
	})
}
