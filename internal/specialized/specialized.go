// Package specialized implements specialized DTDs, the formal core of XML
// Schema (§8 of the paper, after Papakonstantinou & Vianu): a specialized
// DTD over element types Ele is a triple (Ele', D', g) where Ele ⊆ Ele', g
// maps Ele' onto Ele, and D' is an ordinary DTD over the specialized types.
// A document T conforms iff some T' conforming to D' satisfies g(T') = T —
// the same element name may follow different productions depending on
// context.
//
// As the paper observes, g "can be encoded in terms of disjunctive
// production rules which our translation algorithms can already handle":
// a query's label step A becomes the union of the specialized types mapping
// to A, after which the ordinary pipeline — XPathToEXp, EXpToSQL, all three
// strategies — applies unchanged over D'. Storage shreds by specialized
// type (one relation per A'), which type inference assigns per element.
package specialized

import (
	"fmt"
	"sort"

	"xpath2sql/internal/core"
	"xpath2sql/internal/dtd"
	"xpath2sql/internal/rdb"
	"xpath2sql/internal/shred"
	"xpath2sql/internal/xmltree"
	"xpath2sql/internal/xpath"
)

// DTD is a specialized DTD (Ele', D', g).
type DTD struct {
	// Inner is D': an ordinary DTD over the specialized types Ele'.
	Inner *dtd.DTD
	// Map is g: specialized type -> original element name. Types absent
	// from the map represent themselves (g(A) = A).
	Map map[string]string
}

// LabelOf applies g.
func (s *DTD) LabelOf(spec string) string {
	if l, ok := s.Map[spec]; ok {
		return l
	}
	return spec
}

// SpecTypes returns g⁻¹(label): the specialized types presenting as label,
// sorted.
func (s *DTD) SpecTypes(label string) []string {
	var out []string
	for _, t := range s.Inner.Types() {
		if s.LabelOf(t) == label {
			out = append(out, t)
		}
	}
	sort.Strings(out)
	return out
}

// Check validates the triple: D' is consistent and g total on its types.
func (s *DTD) Check() error {
	if s.Inner == nil {
		return fmt.Errorf("specialized: missing inner DTD")
	}
	if err := s.Inner.Check(); err != nil {
		return err
	}
	for spec, label := range s.Map {
		if !s.Inner.Has(spec) {
			return fmt.Errorf("specialized: g defined on undeclared type %q", spec)
		}
		if label == "" {
			return fmt.Errorf("specialized: g(%q) is empty", spec)
		}
	}
	return nil
}

// Infer assigns one valid specialized type to every element of the
// document, or reports that none exists (the document does not conform).
// The root element must take the inner DTD's root type.
func (s *DTD) Infer(doc *xmltree.Document) (map[xmltree.NodeID]string, error) {
	if err := s.Check(); err != nil {
		return nil, err
	}
	if doc.Root == nil {
		return nil, fmt.Errorf("specialized: empty document")
	}
	if s.LabelOf(s.Inner.Root) != doc.Root.Label {
		return nil, fmt.Errorf("specialized: root element %q does not present the root type %q",
			doc.Root.Label, s.Inner.Root)
	}
	// Bottom-up candidate sets.
	cand := map[*xmltree.Node]map[string]bool{}
	var up func(n *xmltree.Node) error
	up = func(n *xmltree.Node) error {
		for _, c := range n.Children {
			if err := up(c); err != nil {
				return err
			}
		}
		set := map[string]bool{}
		for _, spec := range s.SpecTypes(n.Label) {
			if _, ok := s.assign(n, spec, cand); ok {
				set[spec] = true
			}
		}
		if len(set) == 0 {
			return fmt.Errorf("specialized: element %s admits no specialized type", n)
		}
		cand[n] = set
		return nil
	}
	if err := up(doc.Root); err != nil {
		return nil, err
	}
	if !cand[doc.Root][s.Inner.Root] {
		return nil, fmt.Errorf("specialized: root cannot take type %q", s.Inner.Root)
	}
	// Top-down extraction of one assignment.
	out := map[xmltree.NodeID]string{}
	var down func(n *xmltree.Node, spec string) error
	down = func(n *xmltree.Node, spec string) error {
		out[n.ID] = spec
		kidTypes, ok := s.assign(n, spec, cand)
		if !ok {
			return fmt.Errorf("specialized: internal error: assignment lost at %s", n)
		}
		for i, c := range n.Children {
			if err := down(c, kidTypes[i]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := down(doc.Root, s.Inner.Root); err != nil {
		return nil, err
	}
	return out, nil
}

// assign decides whether node n can take specialized type spec given its
// children's candidate sets, returning one child-type assignment (indexed
// like n.Children).
func (s *DTD) assign(n *xmltree.Node, spec string, cand map[*xmltree.Node]map[string]bool) ([]string, bool) {
	prod := s.Inner.Prods[spec]
	// Enumerate child-type choices with memoized backtracking; the chosen
	// multiset must satisfy the production's unordered language.
	choices := make([][]string, len(n.Children))
	for i, c := range n.Children {
		for t := range cand[c] {
			choices[i] = append(choices[i], t)
		}
		sort.Strings(choices[i])
		if len(choices[i]) == 0 {
			return nil, false
		}
	}
	counts := map[string]int{}
	assignment := make([]string, len(n.Children))
	var try func(i int) bool
	try = func(i int) bool {
		if i == len(n.Children) {
			return dtd.MatchesUnordered(prod, counts)
		}
		for _, t := range choices[i] {
			counts[t]++
			assignment[i] = t
			if try(i + 1) {
				return true
			}
			counts[t]--
			if counts[t] == 0 {
				delete(counts, t)
			}
		}
		return false
	}
	if !try(0) {
		return nil, false
	}
	return assignment, true
}

// Validate reports whether the document conforms to the specialized DTD.
func (s *DTD) Validate(doc *xmltree.Document) error {
	_, err := s.Infer(doc)
	return err
}

// Shred maps the document into per-specialized-type edge relations, using
// type inference to place each element. Labels in the catalog remain the
// original element names, so reconstruction yields the surface document.
func Shred(doc *xmltree.Document, s *DTD) (*rdb.DB, error) {
	types, err := s.Infer(doc)
	if err != nil {
		return nil, err
	}
	db := rdb.NewDB()
	for _, typ := range s.Inner.Types() {
		db.Rel(shred.RelName(typ))
	}
	ld := db.NewLoader()
	for _, n := range doc.Nodes() {
		f := 0
		if n.Parent != nil {
			f = int(n.Parent.ID)
		}
		ld.Insert(shred.RelName(types[n.ID]), n.Label, f, int(n.ID), n.Val)
	}
	return db, nil
}

// RewriteQuery maps every label step of q through g⁻¹: a step A becomes the
// union of the specialized types presenting as A (the disjunctive encoding
// of §8). Wildcards, ε and text tests are unchanged. Steps on labels with
// no specialized type become unmatchable.
func RewriteQuery(q xpath.Path, s *DTD) xpath.Path {
	switch q := q.(type) {
	case xpath.Label:
		specs := s.SpecTypes(q.Name)
		if len(specs) == 0 {
			// No type presents as this label: keep the step, which cannot
			// match any relation of the specialized schema.
			return q
		}
		var out xpath.Path = xpath.Label{Name: specs[0]}
		for _, t := range specs[1:] {
			out = xpath.Union{L: out, R: xpath.Label{Name: t}}
		}
		return out
	case xpath.Seq:
		return xpath.Seq{L: RewriteQuery(q.L, s), R: RewriteQuery(q.R, s)}
	case xpath.Desc:
		return xpath.Desc{P: RewriteQuery(q.P, s)}
	case xpath.Union:
		return xpath.Union{L: RewriteQuery(q.L, s), R: RewriteQuery(q.R, s)}
	case xpath.Filter:
		return xpath.Filter{P: RewriteQuery(q.P, s), Q: rewriteQual(q.Q, s)}
	default:
		return q
	}
}

func rewriteQual(q xpath.Qual, s *DTD) xpath.Qual {
	switch q := q.(type) {
	case xpath.QPath:
		return xpath.QPath{P: RewriteQuery(q.P, s)}
	case xpath.QNot:
		return xpath.QNot{Q: rewriteQual(q.Q, s)}
	case xpath.QAnd:
		return xpath.QAnd{L: rewriteQual(q.L, s), R: rewriteQual(q.R, s)}
	case xpath.QOr:
		return xpath.QOr{L: rewriteQual(q.L, s), R: rewriteQual(q.R, s)}
	default:
		return q
	}
}

// Translate rewrites the query through g⁻¹ and runs the ordinary pipeline
// over the inner DTD; the resulting program executes against databases
// produced by this package's Shred.
func Translate(q xpath.Path, s *DTD, opts core.Options) (*core.Result, error) {
	if err := s.Check(); err != nil {
		return nil, err
	}
	return core.Translate(RewriteQuery(q, s), s.Inner, opts)
}
