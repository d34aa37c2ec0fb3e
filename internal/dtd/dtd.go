// Package dtd implements Document Type Definitions as used by Fan et al.
// (§2.1): an extended context-free grammar (Ele, Rg, r) whose productions are
// regular expressions over element types, together with the DTD graph, cycle
// analysis, containment, and document validation.
package dtd

import (
	"fmt"
	"sort"
	"strings"

	"xpath2sql/internal/xmltree"
)

// Content is a regular expression over element types: the content model of a
// production. The grammar is α ::= ε | B | α,α | (α|α) | α* (§2.1); the DTD
// text parser additionally accepts α+ and α? which desugar to (α,α*) and
// (α|ε).
type Content interface {
	// String renders the content model in DTD syntax.
	String() string
	contentNode()
}

// Epsilon is the empty word ε (DTD: EMPTY or an omitted branch of '?').
type Epsilon struct{}

// Name references a subelement type, or #PCDATA when Text is true.
type Name struct {
	Type string
	Text bool // #PCDATA
}

// Seq is concatenation α,β.
type Seq struct{ Items []Content }

// Alt is disjunction (α|β).
type Alt struct{ Items []Content }

// Star is Kleene closure α*.
type Star struct{ Item Content }

func (Epsilon) contentNode() {}
func (Name) contentNode()    {}
func (Seq) contentNode()     {}
func (Alt) contentNode()     {}
func (Star) contentNode()    {}

func (Epsilon) String() string { return "EMPTY" }

func (n Name) String() string {
	if n.Text {
		return "#PCDATA"
	}
	return n.Type
}

func (s Seq) String() string {
	parts := make([]string, len(s.Items))
	for i, it := range s.Items {
		parts[i] = it.String()
	}
	return "(" + strings.Join(parts, ",") + ")"
}

func (a Alt) String() string {
	parts := make([]string, len(a.Items))
	for i, it := range a.Items {
		parts[i] = it.String()
	}
	return "(" + strings.Join(parts, "|") + ")"
}

func (s Star) String() string {
	switch s.Item.(type) {
	case Name:
		return s.Item.String() + "*"
	default:
		return s.Item.String() + "*"
	}
}

// DTD is (Ele, Rg, r): element types, their productions, and the root type.
type DTD struct {
	Root  string
	Prods map[string]Content // element type -> content model
}

// New returns an empty DTD with the given root type. The root production
// defaults to EMPTY until set.
func New(root string) *DTD {
	return &DTD{Root: root, Prods: map[string]Content{root: Epsilon{}}}
}

// SetProd defines (or redefines) the production of an element type.
func (d *DTD) SetProd(typ string, c Content) {
	d.Prods[typ] = c
}

// Types returns all element types in sorted order.
func (d *DTD) Types() []string {
	out := make([]string, 0, len(d.Prods))
	for t := range d.Prods {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Has reports whether the element type is declared.
func (d *DTD) Has(typ string) bool {
	_, ok := d.Prods[typ]
	return ok
}

// Check validates internal consistency: the root is declared and every type
// referenced in a production is declared.
func (d *DTD) Check() error {
	if !d.Has(d.Root) {
		return fmt.Errorf("dtd: root type %q has no production", d.Root)
	}
	for typ, c := range d.Prods {
		for _, sub := range subelements(c) {
			if !d.Has(sub) {
				return fmt.Errorf("dtd: type %q references undeclared type %q", typ, sub)
			}
		}
	}
	return nil
}

// String renders the DTD in <!ELEMENT …> syntax, root first.
func (d *DTD) String() string {
	var b strings.Builder
	write := func(typ string) {
		c := d.Prods[typ]
		body := c.String()
		if _, ok := c.(Epsilon); ok {
			body = "EMPTY"
		} else if !strings.HasPrefix(body, "(") {
			body = "(" + body + ")"
		}
		fmt.Fprintf(&b, "<!ELEMENT %s %s>\n", typ, body)
	}
	write(d.Root)
	for _, t := range d.Types() {
		if t != d.Root {
			write(t)
		}
	}
	return b.String()
}

// subelements lists the distinct element types appearing in a content model,
// in first-appearance order.
func subelements(c Content) []string {
	var out []string
	seen := map[string]bool{}
	var walk func(Content)
	walk = func(c Content) {
		switch c := c.(type) {
		case Name:
			if !c.Text && !seen[c.Type] {
				seen[c.Type] = true
				out = append(out, c.Type)
			}
		case Seq:
			for _, it := range c.Items {
				walk(it)
			}
		case Alt:
			for _, it := range c.Items {
				walk(it)
			}
		case Star:
			walk(c.Item)
		}
	}
	walk(c)
	return out
}

// mentions counts the occurrences of each subelement type in a content model.
func mentions(c Content) map[string]int {
	out := map[string]int{}
	var walk func(Content)
	walk = func(c Content) {
		switch c := c.(type) {
		case Name:
			if !c.Text {
				out[c.Type]++
			}
		case Seq:
			for _, it := range c.Items {
				walk(it)
			}
		case Alt:
			for _, it := range c.Items {
				walk(it)
			}
		case Star:
			walk(c.Item)
		}
	}
	walk(c)
	return out
}

// starred reports, for each subelement type of c, whether some occurrence is
// enclosed in a starred subexpression (§2.1: the '*' edge label).
func starred(c Content) map[string]bool {
	out := map[string]bool{}
	var walk func(Content, bool)
	walk = func(c Content, under bool) {
		switch c := c.(type) {
		case Name:
			if !c.Text && under {
				out[c.Type] = true
			}
		case Seq:
			for _, it := range c.Items {
				walk(it, under)
			}
		case Alt:
			for _, it := range c.Items {
				walk(it, under)
			}
		case Star:
			walk(c.Item, true)
		}
	}
	walk(c, false)
	return out
}

// optional reports, for each subelement type of c, whether the content model
// can be satisfied without producing it (used by the XML generator's
// beyond-X_L policy).
func optional(c Content) map[string]bool {
	req := map[string]int{}
	// nullableWithout(c, t) is true if c matches some word with zero t's.
	var nullableWithout func(Content, string) bool
	nullableWithout = func(c Content, t string) bool {
		switch c := c.(type) {
		case Epsilon:
			return true
		case Name:
			return c.Text || c.Type != t
		case Seq:
			for _, it := range c.Items {
				if !nullableWithout(it, t) {
					return false
				}
			}
			return true
		case Alt:
			for _, it := range c.Items {
				if nullableWithout(it, t) {
					return true
				}
			}
			return len(c.Items) == 0
		case Star:
			return true
		}
		return false
	}
	_ = req
	out := map[string]bool{}
	for _, t := range subelements(c) {
		out[t] = nullableWithout(c, t)
	}
	return out
}

// Validate checks that the document conforms to the DTD: the root element has
// the root type and each element's child-label multiset matches its
// production's language (unordered interpretation, consistent with the
// unordered tree model of §2).
func (d *DTD) Validate(doc *xmltree.Document) error {
	if doc.Root == nil {
		return fmt.Errorf("dtd: empty document")
	}
	if doc.Root.Label != d.Root {
		return fmt.Errorf("dtd: root element is %q, want %q", doc.Root.Label, d.Root)
	}
	var walk func(n *xmltree.Node) error
	walk = func(n *xmltree.Node) error {
		c, ok := d.Prods[n.Label]
		if !ok {
			return fmt.Errorf("dtd: undeclared element type %q at %s", n.Label, n)
		}
		counts := map[string]int{}
		for _, ch := range n.Children {
			counts[ch.Label]++
		}
		if !matchesUnordered(c, counts) {
			return fmt.Errorf("dtd: children of %s do not match production %s", n, c)
		}
		for _, ch := range n.Children {
			if err := walk(ch); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(doc.Root)
}

// MatchesUnordered decides whether some word in L(c) has exactly the given
// label multiset — the unordered conformance check of the §2 data model.
// Exported for the specialized-DTD (XML Schema) extension, whose type
// inference matches against productions over specialized types.
func MatchesUnordered(c Content, counts map[string]int) bool {
	return matchesUnordered(c, counts)
}

// matchesUnordered decides whether some word in L(c) has exactly the given
// label multiset. Exponential in the worst case but productions are tiny.
func matchesUnordered(c Content, counts map[string]int) bool {
	return matchUnordered(c, counts, true)
}

// matchUnordered is matchesUnordered with its one shortcut switchable, so a
// test can hold it equal to the plain fixpoint. A starred name that is the
// production's only mention of its type must take every child of that type —
// nothing else can — so with absorb it yields that one residual instead of
// peeling a child per fixpoint round, and checking a parent costs the same
// however many children it has.
func matchUnordered(c Content, counts map[string]int, absorb bool) bool {
	var once map[string]int
	if absorb {
		once = mentions(c)
	}
	key := func(m map[string]int) string {
		ks := make([]string, 0, len(m))
		for k, v := range m {
			if v > 0 {
				ks = append(ks, fmt.Sprintf("%s=%d", k, v))
			}
		}
		sort.Strings(ks)
		return strings.Join(ks, ",")
	}
	memo := map[string]bool{}
	var match func(c Content, m map[string]int) bool
	// residuals(c, m) enumerates multisets m' obtainable by removing one
	// word of L(c) from m; match is "can consume exactly".
	var consume func(c Content, m map[string]int) []map[string]int
	clone := func(m map[string]int) map[string]int {
		n := make(map[string]int, len(m))
		for k, v := range m {
			if v > 0 {
				n[k] = v
			}
		}
		return n
	}
	consume = func(c Content, m map[string]int) []map[string]int {
		switch c := c.(type) {
		case Epsilon:
			return []map[string]int{clone(m)}
		case Name:
			if c.Text {
				return []map[string]int{clone(m)}
			}
			if m[c.Type] > 0 {
				n := clone(m)
				n[c.Type]--
				if n[c.Type] == 0 {
					delete(n, c.Type)
				}
				return []map[string]int{n}
			}
			return nil
		case Seq:
			rs := []map[string]int{clone(m)}
			for _, it := range c.Items {
				var next []map[string]int
				seen := map[string]bool{}
				for _, r := range rs {
					for _, r2 := range consume(it, r) {
						k := key(r2)
						if !seen[k] {
							seen[k] = true
							next = append(next, r2)
						}
					}
				}
				rs = next
				if len(rs) == 0 {
					return nil
				}
			}
			return rs
		case Alt:
			var out []map[string]int
			seen := map[string]bool{}
			for _, it := range c.Items {
				for _, r := range consume(it, m) {
					k := key(r)
					if !seen[k] {
						seen[k] = true
						out = append(out, r)
					}
				}
			}
			return out
		case Star:
			if n, ok := c.Item.(Name); ok && once[n.Type] == 1 {
				r := clone(m)
				delete(r, n.Type)
				return []map[string]int{r}
			}
			// Fixpoint: zero or more consumptions.
			out := []map[string]int{clone(m)}
			seen := map[string]bool{key(m): true}
			frontier := out
			for len(frontier) > 0 {
				var next []map[string]int
				for _, r := range frontier {
					for _, r2 := range consume(c.Item, r) {
						k := key(r2)
						if !seen[k] {
							seen[k] = true
							next = append(next, r2)
							out = append(out, r2)
						}
					}
				}
				frontier = next
			}
			return out
		}
		return nil
	}
	match = func(c Content, m map[string]int) bool {
		k := key(m) + "@" + c.String()
		if v, ok := memo[k]; ok {
			return v
		}
		res := false
		for _, r := range consume(c, m) {
			if len(r) == 0 {
				res = true
				break
			}
		}
		memo[k] = res
		return res
	}
	return match(c, counts)
}
