package core

import (
	"math/rand"
	"strings"
	"testing"

	"xpath2sql/internal/dtd"
	"xpath2sql/internal/expath"
	"xpath2sql/internal/workload"
	"xpath2sql/internal/xmlgen"
	"xpath2sql/internal/xmltree"
)

// RecSet is CycleEX read back as values: the whole equation system, with
// rec(A, B) by type name (Zero for a name that is no type).
type RecSet struct {
	Eqs   []expath.Equation
	g     *transGraph
	final [][]expath.Expr
}

func (r *RecSet) Rec(a, b string) expath.Expr {
	i, ok1 := r.g.num[a]
	j, ok2 := r.g.num[b]
	if !ok1 || !ok2 {
		return expath.Zero{}
	}
	return r.final[i][j]
}

// CycleEX runs Fig 7 over the translation graph, unpruned.
func CycleEX(t *transGraph) *RecSet {
	tr := newExTranslator(t, RecCycleEX)
	rs := &RecSet{Eqs: tr.t.Equations(tr.recVars), g: t, final: make([][]expath.Expr, len(tr.recs))}
	for i, row := range tr.recs {
		for _, e := range row {
			rs.final[i] = append(rs.final[i], tr.t.Expr(e))
		}
	}
	return rs
}

// CycleE is Tarjan's variable-free rec(A, B) (Fig 6).
func CycleE(t *transGraph, a, b string) expath.Expr {
	tr := newExTranslator(t, RecCycleE)
	return tr.t.Expr(tr.rec(t.num[a], t.num[b]))
}

// recQuery wraps a rec(A,B) expression from CycleEX into a standalone query.
func recQuery(rs *RecSet, a, b string) *expath.Query {
	q := &expath.Query{Eqs: rs.Eqs, Result: rs.Rec(a, b)}
	return q.Prune()
}

// pathsVia enumerates label words of DTD paths from a to b up to length k
// (brute force over the graph).
func pathsVia(g *dtd.Graph, a, b string, k int) map[string]bool {
	out := map[string]bool{}
	var walk func(cur string, word []string)
	walk = func(cur string, word []string) {
		if len(word) > k {
			return
		}
		if cur == b {
			out[strings.Join(word, "/")] = true
		}
		if len(word) == k {
			return
		}
		for _, e := range g.Out[cur] {
			walk(e.To, append(word, e.To))
		}
	}
	walk(a, nil)
	return out
}

// langUpTo enumerates the words of an extended-XPath query's language up to
// length k, by evaluating it over a "universal" chain? Instead: expand the
// query symbolically via its inlined regular expression and dynamic
// programming over lengths.
func langUpTo(q *expath.Query, k int) map[string]bool {
	inlined := q.Inline()
	out := map[string]bool{}
	var words func(e expath.Expr, max int) map[string]bool
	memo := map[string]map[string]bool{}
	key := func(e expath.Expr, max int) string { return e.String() + "@" + string(rune('0'+max)) }
	words = func(e expath.Expr, max int) map[string]bool {
		if m, ok := memo[key(e, max)]; ok {
			return m
		}
		res := map[string]bool{}
		switch e := e.(type) {
		case expath.Zero:
		case expath.Eps:
			res[""] = true
		case expath.Label:
			if max >= 1 {
				res[e.Name] = true
			}
		case expath.Cat:
			l := words(e.L, max)
			for lw := range l {
				llen := wordLen(lw)
				r := words(e.R, max-llen)
				for rw := range r {
					res[joinWord(lw, rw)] = true
				}
			}
		case expath.Union:
			for w := range words(e.L, max) {
				res[w] = true
			}
			for w := range words(e.R, max) {
				res[w] = true
			}
		case expath.Star:
			res[""] = true
			cur := map[string]bool{"": true}
			for {
				next := map[string]bool{}
				for cw := range cur {
					rem := max - wordLen(cw)
					if rem <= 0 {
						continue
					}
					for ew := range words(e.E, rem) {
						if ew == "" {
							continue
						}
						w := joinWord(cw, ew)
						if !res[w] {
							res[w] = true
							next[w] = true
						}
					}
				}
				if len(next) == 0 {
					break
				}
				cur = next
			}
		}
		memo[key(e, max)] = res
		return res
	}
	for w := range words(inlined, k) {
		out[w] = true
	}
	return out
}

func wordLen(w string) int {
	if w == "" {
		return 0
	}
	return strings.Count(w, "/") + 1
}

func joinWord(a, b string) string {
	switch {
	case a == "":
		return b
	case b == "":
		return a
	default:
		return a + "/" + b
	}
}

// TestCycleEXLanguage: for every DTD and node pair, the language of
// rec(A, B) up to length k equals the set of DTD paths from A to B — the
// claim of Theorem 4.1.
func TestCycleEXLanguage(t *testing.T) {
	dtds := []*dtd.DTD{workload.Cross(), workload.BIOMLa(), workload.Fig3D()}
	for _, d := range dtds {
		g := d.BuildGraph()
		tg := newTransGraph(g)
		rs := CycleEX(tg)
		for _, a := range g.Nodes {
			for _, b := range g.Nodes {
				q := recQuery(rs, a, b)
				got := langUpTo(q, 4)
				want := pathsVia(g, a, b, 4)
				if len(got) != len(want) {
					t.Fatalf("%s→%s: language %v, paths %v", a, b, got, want)
				}
				for w := range want {
					if !got[w] {
						t.Fatalf("%s→%s: missing word %q", a, b, w)
					}
				}
			}
		}
	}
}

// TestCycleEEqualsCycleEX: the two algorithms define the same language.
func TestCycleEEqualsCycleEX(t *testing.T) {
	d := workload.BIOMLd()
	g := d.BuildGraph()
	tg := newTransGraph(g)
	rs := CycleEX(tg)
	for _, a := range g.Nodes {
		for _, b := range g.Nodes {
			e := CycleE(tg, a, b)
			gotE := langUpTo(&expath.Query{Result: e}, 4)
			gotX := langUpTo(recQuery(rs, a, b), 4)
			if len(gotE) != len(gotX) {
				t.Fatalf("%s→%s: CycleE %d words, CycleEX %d words", a, b, len(gotE), len(gotX))
			}
			for w := range gotE {
				if !gotX[w] {
					t.Fatalf("%s→%s: word %q only in CycleE", a, b, w)
				}
			}
		}
	}
}

// TestRecMatchesDescendantOracle: evaluating rec(A, B) at an A element
// returns the same nodes as //B (Theorem 4.1's statement), on random
// documents.
func TestRecMatchesDescendantOracle(t *testing.T) {
	for _, d := range []*dtd.DTD{workload.Cross(), workload.GedML()} {
		g := d.BuildGraph()
		tg := newTransGraph(g)
		rs := CycleEX(tg)
		doc, err := xmlgen.Generate(d, xmlgen.Options{XL: 6, XR: 3, Seed: 5, MaxNodes: 200})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range g.Nodes {
			for _, b := range g.Nodes {
				q := recQuery(rs, a, b)
				rel, err := expath.EvalQuery(q, doc)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range doc.Nodes() {
					if v.Label != a {
						continue
					}
					got := expath.ResultAt(rel, doc, v.ID)
					// Oracle: descendant-or-self B nodes of v.
					want := xmltree.NodeSet{}
					for _, m := range v.DescendantsOrSelf() {
						if m.Label == b {
							want.Add(m)
						}
					}
					if !got.Equal(want) {
						t.Fatalf("%s→%s at %s: got %v, want %v", a, b, v, got.IDs(), want.IDs())
					}
				}
			}
		}
	}
}

// TestExample42Separation reproduces Example 4.2's complexity claim: on the
// DAG D1 with n nodes, CycleEX's '/'-operator count grows as Θ(n²) while
// CycleE's grows as Θ(2ⁿ).
func TestExample42Separation(t *testing.T) {
	catCount := func(e expath.Expr) int {
		var count func(expath.Expr) int
		count = func(e expath.Expr) int {
			switch e := e.(type) {
			case expath.Cat:
				return 1 + count(e.L) + count(e.R)
			case expath.Union:
				return count(e.L) + count(e.R)
			case expath.Star:
				return count(e.E)
			case expath.Qualified:
				return count(e.E)
			}
			return 0
		}
		return count(e)
	}
	var cycleECats, cycleEXCats []int
	for _, n := range []int{4, 6, 8, 10} {
		d := workload.FigD1(n)
		g := d.BuildGraph()
		tg := newTransGraph(g)
		a, b := "A1", "A"+itoa(n)
		cycleECats = append(cycleECats, catCount(CycleE(tg, a, b)))
		q := recQuery(CycleEX(tg), a, b)
		total := catCount(q.Result)
		for _, eq := range q.Eqs {
			total += catCount(eq.E)
		}
		cycleEXCats = append(cycleEXCats, total)
	}
	// CycleE: at least doubling per +2 nodes (exponential).
	for i := 1; i < len(cycleECats); i++ {
		if cycleECats[i] < 2*cycleECats[i-1] {
			t.Errorf("CycleE growth not exponential: %v", cycleECats)
			break
		}
	}
	// CycleEX: polynomial — the count for n=10 must be far below CycleE's.
	last := len(cycleECats) - 1
	if cycleEXCats[last]*4 > cycleECats[last] {
		t.Errorf("CycleEX (%v) not clearly smaller than CycleE (%v)", cycleEXCats, cycleECats)
	}
	// And sub-quadratic-ish growth in n (allow slack for constants).
	if cycleEXCats[last] > 10*10*10 {
		t.Errorf("CycleEX cats = %v, expected O(n²)-ish", cycleEXCats)
	}
}

func itoa(i int) string {
	var b [8]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}

// TestRecSetSharedAcrossPairs: one CycleEX run serves every pair.
func TestRecSetSharedAcrossPairs(t *testing.T) {
	tg := newTransGraph(workload.GedML().BuildGraph())
	rs := CycleEX(tg)
	if rs.Rec("Even", "Data") == nil {
		t.Fatal("missing Even→Data")
	}
	if _, isZero := rs.Rec("Data", "#missing").(expath.Zero); !isZero {
		t.Fatal("unknown node should map to ∅")
	}
	// Unreachable pair (no path): leaf-less in GedML all are reachable, so
	// check the virtual root is never a target.
	if _, isZero := rs.Rec("Even", DocType).(expath.Zero); !isZero {
		t.Fatal("nothing reaches the virtual root")
	}
}

// TestCycleEXEquationSizes: every CycleEX equation has constant size (at
// most four variables / operands), the property that yields the O(n³ log n)
// bound of Theorem 4.1.
func TestCycleEXEquationSizes(t *testing.T) {
	tg := newTransGraph(workload.GedML().BuildGraph())
	rs := CycleEX(tg)
	for _, eq := range rs.Eqs {
		if n := exprSize(eq.E); n > 9 {
			t.Fatalf("equation %s = %s has size %d", eq.X, eq.E, n)
		}
	}
}

func exprSize(e expath.Expr) int {
	switch e := e.(type) {
	case expath.Cat:
		return 1 + exprSize(e.L) + exprSize(e.R)
	case expath.Union:
		return 1 + exprSize(e.L) + exprSize(e.R)
	case expath.Star:
		return 1 + exprSize(e.E)
	case expath.Qualified:
		return 1 + exprSize(e.E)
	default:
		return 1
	}
}

// TestCycleEXRandomGraphs: language equivalence on random DTD graphs.
func TestCycleEXRandomGraphs(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	for iter := 0; iter < 30; iter++ {
		n := 3 + r.Intn(4)
		d := randomDTD(r, n)
		g := d.BuildGraph()
		tg := newTransGraph(g)
		rs := CycleEX(tg)
		nodes := g.Nodes
		a := nodes[r.Intn(len(nodes))]
		b := nodes[r.Intn(len(nodes))]
		got := langUpTo(recQuery(rs, a, b), 4)
		want := pathsVia(g, a, b, 4)
		if len(got) != len(want) {
			t.Fatalf("iter %d %s→%s: %d words vs %d paths\nDTD:\n%s", iter, a, b, len(got), len(want), d)
		}
		for w := range want {
			if !got[w] {
				t.Fatalf("iter %d %s→%s: missing %q", iter, a, b, w)
			}
		}
	}
}

// randomDTD builds a random star-guarded DTD over n types with root t0.
func randomDTD(r *rand.Rand, n int) *dtd.DTD {
	names := make([]string, n)
	for i := range names {
		names[i] = "t" + itoa(i+1)
	}
	d := dtd.New(names[0])
	for i, t := range names {
		var kids []dtd.Content
		for j := range names {
			if r.Intn(3) == 0 {
				kids = append(kids, dtd.Star{Item: dtd.Name{Type: names[j]}})
			}
		}
		// Guarantee reachability: t_i links to t_{i+1}.
		if i+1 < n {
			kids = append(kids, dtd.Star{Item: dtd.Name{Type: names[i+1]}})
		}
		if len(kids) == 0 {
			d.SetProd(t, dtd.Epsilon{})
		} else {
			d.SetProd(t, dtd.Seq{Items: kids})
		}
	}
	return d
}
