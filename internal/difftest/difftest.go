// Package difftest is the one random generator behind the differential
// suites and their fuzz targets. It draws recursive DTDs, conforming
// documents, queries of the paper's fragment, store updates and ra programs,
// every choice from a Source: a *rand.Rand in a seeded Test, FromBytes in its
// Fuzz twin.
//
// A byte string decodes to a finite, valid instance whatever it holds: every
// recursion is bounded by a depth, and where a draw decides whether to go on
// (another child, another level, another statement), 0 stops.
//
// The package imports only dtd, xpath, xmltree, xmlgen, ra and the standard
// library, so the tests of every package above them — rdb's in-package tests
// included — use it without an import cycle.
package difftest

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"xpath2sql/internal/dtd"
	"xpath2sql/internal/xmlgen"
	"xpath2sql/internal/xmltree"
	"xpath2sql/internal/xpath"
)

// Source is where every choice is drawn from: Intn(n) is a value in [0, n).
// *rand.Rand implements it.
type Source interface{ Intn(n int) int }

// Seed is the Source of a seeded suite.
func Seed(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// FromBytes is the Source of a fuzz target: one byte per draw, taken modulo
// n, and 0 once the bytes run out.
func FromBytes(b []byte) Source { return &byteSource{b} }

type byteSource struct{ b []byte }

func (s *byteSource) Intn(n int) int {
	if len(s.b) == 0 {
		return 0
	}
	v := int(s.b[0]) % n
	s.b = s.b[1:]
	return v
}

// Value is the documents' value function: five values per type, so a
// text()=c qualifier drawn by Query hits.
func Value(typ string, r *rand.Rand) string { return value(r, typ) }

func value(src Source, typ string) string { return fmt.Sprintf("%s-%d", typ, src.Intn(5)) }

// Doc generates a document of d with xmlgen (X_L 6, X_R 3, values from
// Value) from the given xmlgen seed.
func Doc(t testing.TB, d *dtd.DTD, seed int64, maxNodes int) *xmltree.Document {
	t.Helper()
	doc, err := xmlgen.Generate(d, xmlgen.Options{XL: 6, XR: 3, Seed: seed, MaxNodes: maxNodes, ValueFunc: Value})
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// Oracle answers q with the native evaluator: the IDs of the nodes it
// selects on doc, ascending.
func Oracle(q xpath.Path, doc *xmltree.Document) []int { return IDs(xpath.EvalDoc(q, doc)) }

// IDs lists a node set's IDs, ascending.
func IDs(set xmltree.NodeSet) []int {
	ids := set.IDs()
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = int(id)
	}
	return out
}

// Rec is a random recursive DTD: a chain of types t0 → … → t(n-1), 4 ≤ n ≤ 6,
// closed into a cycle by an edge from the last type back to an earlier one,
// chords drawn one in four, and text leaves val and tag drawn one in two,
// under a root doc whose content is t0*. Every production is a sequence of
// starred children, so any choice of a type's children — none included — is
// valid content.
type Rec struct {
	*dtd.DTD
	Types []string            // t0 … t(n-1)
	Kids  map[string][]string // the children of each type but the leaves, in production order
}

// RecDTD draws a Rec.
func RecDTD(src Source) Rec {
	n := 4 + src.Intn(3)
	types := make([]string, n)
	for i := range types {
		types[i] = fmt.Sprintf("t%d", i)
	}
	leaves := []string{"val", "tag"}
	kids := map[string][]string{"doc": {types[0]}}
	add := func(typ, kid string) {
		if !slices.Contains(kids[typ], kid) {
			kids[typ] = append(kids[typ], kid)
		}
	}
	for i, typ := range types {
		if i+1 < n {
			add(typ, types[i+1])
		}
		for j := range types {
			if j != i && src.Intn(4) == 0 {
				add(typ, types[j])
			}
		}
		if src.Intn(2) == 0 {
			add(typ, leaves[src.Intn(len(leaves))])
		}
	}
	add(types[n-1], types[src.Intn(n-1)])

	d := dtd.New("doc")
	for typ, ks := range kids {
		d.SetProd(typ, stars(ks))
	}
	for _, leaf := range leaves {
		d.SetProd(leaf, dtd.Name{Text: true})
	}
	return Rec{DTD: d, Types: types, Kids: kids}
}

// stars is the sequence of the starred types, or the one starred type.
func stars(types []string) dtd.Content {
	items := make([]dtd.Content, len(types))
	for i, typ := range types {
		items[i] = dtd.Star{Item: dtd.Name{Type: typ}}
	}
	if len(items) == 1 {
		return items[0]
	}
	return dtd.Seq{Items: items}
}

// GraphDTD draws the star-guarded random graph shape over types t1 … tn,
// rooted at t1: each type's content is a sequence of starred types, each of
// the n drawn one in three. With chain, t(i) also has t(i+1) as a child, so
// the root reaches every type.
func GraphDTD(src Source, n int, chain bool) *dtd.DTD {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i+1)
	}
	d := dtd.New(names[0])
	for i, typ := range names {
		var kids []dtd.Content
		for _, k := range names {
			if src.Intn(3) == 0 {
				kids = append(kids, dtd.Star{Item: dtd.Name{Type: k}})
			}
		}
		if chain && i+1 < n {
			kids = append(kids, dtd.Star{Item: dtd.Name{Type: names[i+1]}})
		}
		if len(kids) == 0 {
			d.SetProd(typ, dtd.Epsilon{})
		} else {
			d.SetProd(typ, dtd.Seq{Items: kids})
		}
	}
	return d
}

// Fragment draws an XML fragment of type typ valid under r: up to two
// children an element, depth levels of them, and a Value under a leaf.
func (r Rec) Fragment(src Source, typ string, depth int) string {
	body := ""
	if ks, ok := r.Kids[typ]; !ok {
		body = value(src, typ)
	} else if depth > 0 {
		for c := src.Intn(3); c > 0; c-- {
			body += r.Fragment(src, ks[src.Intn(len(ks))], depth-1)
		}
	}
	return "<" + typ + ">" + body + "</" + typ + ">"
}

// UpdateOp is the kind of an Update.
type UpdateOp int

// The kinds of update.
const (
	Insert UpdateOp = iota // Fragment as a new last child of Node
	Delete                 // Node's subtree
	Text                   // Node's value becomes Value
)

// Update is one store update.
type Update struct {
	Op       UpdateOp
	Node     int
	Fragment string
	Value    string
}

// Update draws an update over the live nodes ids, each labelled by label: in one
// draw in two, a fragment two levels deep inserted under an element that may
// have children (which keeps a document from draining); in one in four, the
// delete of a subtree other than a document's; else a new value of a leaf.
// ok is false when the kind drawn has no target.
func (r Rec) Update(src Source, ids []int, label func(id int) (string, bool)) (u Update, ok bool) {
	u.Op = [4]UpdateOp{Insert, Insert, Delete, Text}[src.Intn(4)]
	var cands []int
	for _, id := range ids {
		typ, _ := label(id)
		ks, inner := r.Kids[typ]
		switch {
		case u.Op == Insert && len(ks) > 0, u.Op == Delete && typ != "doc", u.Op == Text && !inner:
			cands = append(cands, id)
		}
	}
	if len(cands) == 0 {
		return u, false
	}
	u.Node = cands[src.Intn(len(cands))]
	switch typ, _ := label(u.Node); u.Op {
	case Insert:
		ks := r.Kids[typ]
		u.Fragment = r.Fragment(src, ks[src.Intn(len(ks))], 2)
	case Text:
		u.Value = value(src, typ)
	}
	return u, true
}
