// Package shred implements DTD-based shredding of XML into relations (§2.3).
//
// Two layers are provided:
//
//  1. The per-type edge mapping the translation algorithms assume ("we
//     assume that the mapping τ maps each element type A to a relation RA in
//     R, which has three columns F, T and V"): Shred produces one
//     (F, T, V) relation per element type, with F = parent node ID, T = node
//     ID, V = text value and F = '_' (ID 0) for the root element.
//
//  2. The shared-inlining technique of Shanmugasundaram et al. [59]:
//     InlineSchema partitions the DTD graph into subgraphs with no starred
//     internal edge, derives a relation schema per subgraph (key ID,
//     parentId, parentCode where needed, one column per inlined type), and
//     InlineShred populates it. This reproduces Example 2.3's four-relation
//     schema for the dept DTD.
package shred

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"xpath2sql/internal/dtd"
	"xpath2sql/internal/rdb"
	"xpath2sql/internal/xmltree"
)

// RelName returns the stored relation name of an element type A: "R_A".
func RelName(typ string) string { return "R_" + typ }

// Shred maps a document to the per-type edge relations. Every element type
// of d gets a relation (possibly empty); elements of undeclared types are
// rejected. Each node also receives its document-order interval (begin,
// end, level) and the database is stamped with the DTD's fingerprint, which
// together enable the descendant-axis interval fast path.
func Shred(doc *xmltree.Document, d *dtd.DTD) (*rdb.DB, error) {
	db := rdb.NewDB()
	for _, typ := range d.Types() {
		db.Rel(RelName(typ))
	}
	ld := db.NewLoader()
	nodes := doc.Nodes()
	// Dense preorder IDs make every subtree a contiguous ID range, so the
	// interval is begin = ID-1, end = begin + subtree size. Sizes come from
	// one reverse-preorder pass (children precede their parent there).
	sizes := make([]int64, len(nodes)+1)
	for i := len(nodes) - 1; i >= 0; i-- {
		n := nodes[i]
		sizes[n.ID] += 1
		if n.Parent != nil {
			sizes[n.Parent.ID] += sizes[n.ID]
		}
	}
	levels := make([]int32, len(nodes)+1)
	iv := db.NewIntervalBuilder()
	for _, n := range nodes {
		if !d.Has(n.Label) {
			return nil, fmt.Errorf("shred: element type %q %w", n.Label, ErrNotInDTD)
		}
		f := 0
		if n.Parent != nil {
			f = int(n.Parent.ID)
			levels[n.ID] = levels[n.Parent.ID] + 1
		}
		ld.Insert(RelName(n.Label), n.Label, f, int(n.ID), n.Val)
		begin := int64(n.ID) - 1
		iv.Set(int(n.ID), rdb.NodeInterval{Begin: begin, End: begin + sizes[n.ID], Level: levels[n.ID]})
	}
	iv.Adopt()
	db.DTDFP = d.Fingerprint()
	return db, nil
}

// Reconstruct rebuilds the XML subtrees rooted at the given answer nodes
// from the shredded relations alone (§5.2 "XML reconstruction"): children
// of a node are the tuples holding it as F, labels and values come from the
// database catalog. The result is a document with a synthetic result root
// wrapping one subtree per answer, children ordered by node ID.
func Reconstruct(db *rdb.DB, answers []int) (*xmltree.Document, error) {
	// Child index across all relations.
	children := map[int][]rdb.Tuple{}
	for _, rel := range db.Rels {
		for _, t := range rel.Tuples() {
			children[t.F] = append(children[t.F], t)
		}
	}
	for _, kids := range children {
		sort.Slice(kids, func(i, j int) bool { return kids[i].T < kids[j].T })
	}
	var build func(id int) (*xmltree.Node, error)
	build = func(id int) (*xmltree.Node, error) {
		label, ok := db.Label(id)
		if !ok {
			return nil, fmt.Errorf("shred: node %d has no label in the catalog (was the database built by Shred?)", id)
		}
		n := &xmltree.Node{Label: label, Val: db.Val(id)}
		for _, c := range children[id] {
			child, err := build(c.T)
			if err != nil {
				return nil, err
			}
			child.Parent = n
			n.Children = append(n.Children, child)
		}
		return n, nil
	}
	root := &xmltree.Node{Label: "result"}
	for _, id := range answers {
		sub, err := build(id)
		if err != nil {
			return nil, err
		}
		sub.Parent = root
		root.Children = append(root.Children, sub)
	}
	return xmltree.NewDocument(root), nil
}

// AncestorPath returns the label path from the document root to the node,
// reconstructed from the catalog's parents, e.g. "dept/course/project".
func AncestorPath(db *rdb.DB, id int) (string, error) {
	var labels []string
	for cur := id; cur != 0; {
		label, ok := db.Label(cur)
		if !ok {
			return "", fmt.Errorf("shred: node %d has no label in the catalog", cur)
		}
		labels = append(labels, label)
		if !db.HasNode(cur) {
			return "", fmt.Errorf("shred: node %d has no parent entry", cur)
		}
		cur = db.Parent(cur)
	}
	slices.Reverse(labels)
	return strings.Join(labels, "/"), nil
}

// Partition computes the shared-inlining partition of the DTD graph: the set
// of subgraph roots (types that get their own relation) and, for every type,
// the root of the subgraph it is inlined into.
//
// A type becomes a subgraph root when it cannot be inlined into a unique
// parent: it is the DTD root, the target of a starred edge (set-valued), or
// has multiple incoming edges (shared). Recursion is then broken by making
// the first type, by name, of each remaining all-inlined cycle a root (in the
// dept DTD of Example 2.3 the shared course node already breaks every cycle,
// so prereq, qualified and required inline into R_course).
func Partition(g *dtd.Graph) (roots map[string]bool, owner map[string]string) {
	roots = map[string]bool{g.Root: true}
	for _, node := range g.Nodes {
		in := g.In[node]
		if len(in) > 1 {
			roots[node] = true
			continue
		}
		for _, e := range in {
			if e.Starred {
				roots[node] = true
			}
		}
	}
	// Break the cycles that consist entirely of inlined types. Each of them
	// has one parent, so a cyclic component of the inlined types is one simple
	// cycle, which one root breaks: a pass of Tarjan's algorithm, linear in
	// the graph, where enumerating the simple cycles is exponential.
	for _, scc := range g.Induced(func(n string) bool { return !roots[n] }).CyclicSCCs() {
		roots[scc[0]] = true
	}
	// Assign every non-root type to the root whose subgraph reaches it via
	// non-root intermediate nodes.
	owner = map[string]string{}
	for r := range roots {
		owner[r] = r
		var walk func(n string)
		walk = func(n string) {
			for _, e := range g.Out[n] {
				if !roots[e.To] && owner[e.To] == "" {
					owner[e.To] = r
					walk(e.To)
				}
			}
		}
		walk(r)
	}
	return roots, owner
}

// RelSchema describes one relation of the shared-inlining schema.
type RelSchema struct {
	Name string // relation name, R_<rootType>
	Root string // the subgraph root element type
	// Inlined lists the element types stored as columns of this relation
	// (the non-root members of the subgraph), sorted.
	Inlined []string
	// ParentCode reports whether the relation needs a parentCode attribute
	// (the subgraph has more than one incoming edge, §2.3).
	ParentCode bool
	// ParentCodes lists the distinct codes: "parentType/via" paths from a
	// parent subgraph root to this root.
	ParentCodes []string
}

// Columns renders the schema's column list as in Example 2.3.
func (s RelSchema) Columns() []string {
	cols := []string{"F", "T"}
	cols = append(cols, s.Inlined...)
	if s.ParentCode {
		cols = append(cols, "parentCode")
	}
	return cols
}

func (s RelSchema) String() string {
	return fmt.Sprintf("%s(%s)", s.Name, strings.Join(s.Columns(), ", "))
}

// InlineSchema derives the shared-inlining relational schema of a DTD.
func InlineSchema(d *dtd.DTD) []RelSchema {
	g := d.BuildGraph()
	roots, owner := Partition(g)
	var rootList []string
	for r := range roots {
		rootList = append(rootList, r)
	}
	sort.Strings(rootList)

	var out []RelSchema
	for _, r := range rootList {
		s := RelSchema{Name: RelName(r), Root: r}
		for t, o := range owner {
			if o == r && t != r {
				s.Inlined = append(s.Inlined, t)
			}
		}
		sort.Strings(s.Inlined)
		// Incoming edges into this subgraph root, described as
		// "ownerRoot/viaType" codes.
		codes := map[string]bool{}
		for _, e := range g.In[r] {
			from := owner[e.From]
			code := from
			if e.From != from {
				code = from + "/" + e.From
			}
			codes[code] = true
		}
		for c := range codes {
			s.ParentCodes = append(s.ParentCodes, c)
		}
		sort.Strings(s.ParentCodes)
		s.ParentCode = len(s.ParentCodes) > 1
		out = append(out, s)
	}
	return out
}

// InlineRow is one tuple of an inlined relation.
type InlineRow struct {
	F, T       int               // parent subgraph-root node ID, own node ID
	Attrs      map[string]string // inlined type -> concatenated text values
	ParentCode string            // which incoming edge produced this row
}

// InlineStore holds the shredded inlined relations.
type InlineStore struct {
	Schema []RelSchema
	Rows   map[string][]InlineRow // relation name -> rows
}

// InlineShred shreds a document into the shared-inlining schema. Elements of
// subgraph-root types produce rows; inlined descendants contribute attribute
// values to their owning root's row.
func InlineShred(doc *xmltree.Document, d *dtd.DTD) (*InlineStore, error) {
	g := d.BuildGraph()
	roots, owner := Partition(g)
	schema := InlineSchema(d)
	store := &InlineStore{Schema: schema, Rows: map[string][]InlineRow{}}

	var shred func(n *xmltree.Node, parentRootID int, code string) error
	shred = func(n *xmltree.Node, parentRootID int, code string) error {
		if !d.Has(n.Label) {
			return fmt.Errorf("shred: element type %q %w", n.Label, ErrNotInDTD)
		}
		if !roots[n.Label] {
			return fmt.Errorf("shred: internal error: %q is not a subgraph root", n.Label)
		}
		row := InlineRow{F: parentRootID, T: int(n.ID), Attrs: map[string]string{}, ParentCode: code}
		// Collect inlined descendants (stay within the subgraph) and recurse
		// into child subgraph roots.
		var collect func(m *xmltree.Node, via string) error
		collect = func(m *xmltree.Node, via string) error {
			for _, c := range m.Children {
				if roots[c.Label] {
					childCode := owner[m.Label]
					if m.Label != owner[m.Label] {
						childCode = owner[m.Label] + "/" + m.Label
					}
					if err := shred(c, int(n.ID), childCode); err != nil {
						return err
					}
					continue
				}
				if owner[c.Label] != n.Label {
					return fmt.Errorf("shred: %q inlined under %q but owned by %q", c.Label, n.Label, owner[c.Label])
				}
				if c.Val != "" {
					if prev := row.Attrs[c.Label]; prev != "" {
						row.Attrs[c.Label] = prev + ";" + c.Val
					} else {
						row.Attrs[c.Label] = c.Val
					}
				}
				if err := collect(c, via+"/"+c.Label); err != nil {
					return err
				}
			}
			return nil
		}
		if err := collect(n, ""); err != nil {
			return err
		}
		name := RelName(n.Label)
		store.Rows[name] = append(store.Rows[name], row)
		return nil
	}
	if doc.Root == nil {
		return nil, fmt.Errorf("shred: empty document")
	}
	if err := shred(doc.Root, 0, ""); err != nil {
		return nil, err
	}
	return store, nil
}
