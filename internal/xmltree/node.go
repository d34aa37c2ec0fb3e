// Package xmltree provides the XML document model used throughout the
// repository: an unordered tree of labeled element nodes, each optionally
// carrying a PCDATA text value. Attributes and ordering are intentionally
// absent, matching the data model of Fan et al. (§2): the XPath fragment
// under study is order-insensitive and attribute-free.
package xmltree

import (
	"fmt"
	"slices"
	"strings"
)

// NodeID identifies a node within a document. IDs are dense, start at 1 for
// the root element, and are stable under serialization. ID 0 is reserved for
// the virtual document root (the shredded '_' parent of the root element).
type NodeID int

// VirtualRoot is the NodeID of the implicit document root, the parent of the
// root element. It never appears as a Node in the tree; it exists so that
// shredded relations can record the root element's F attribute.
const VirtualRoot NodeID = 0

// Node is a single element in an XML tree.
type Node struct {
	ID       NodeID
	Label    string
	Val      string // PCDATA text value; "" when absent
	Parent   *Node  // nil for the root element
	Children []*Node
}

// Document is a parsed XML tree with an index from NodeID to node.
type Document struct {
	Root  *Node
	index []*Node // index[i] holds the node with ID i+1
}

// NewDocument wraps a freshly built tree, assigning dense IDs in preorder.
// Any IDs already present on the nodes are overwritten.
func NewDocument(root *Node) *Document {
	d := &Document{Root: root}
	d.Renumber()
	return d
}

// Renumber reassigns dense preorder IDs and rebuilds the index. It must be
// called after structural edits made outside the package's builders.
func (d *Document) Renumber() {
	d.index = d.index[:0]
	if d.Root == nil {
		return
	}
	d.Root.Parent = nil
	d.index = preorder(d.index, d.Root)
	for i, n := range d.index {
		n.ID = NodeID(i + 1)
		for _, c := range n.Children {
			c.Parent = n
		}
	}
}

// preorder appends n and its descendants to out in preorder.
func preorder(out []*Node, n *Node) []*Node {
	out = append(out, n)
	for _, c := range n.Children {
		out = preorder(out, c)
	}
	return out
}

// Size reports the number of element nodes in the document.
func (d *Document) Size() int { return len(d.index) }

// Node returns the node with the given ID, or nil if out of range.
func (d *Document) Node(id NodeID) *Node {
	if id < 1 || int(id) > len(d.index) {
		return nil
	}
	return d.index[id-1]
}

// Nodes returns all nodes in preorder. The returned slice is shared with the
// document and must not be modified.
func (d *Document) Nodes() []*Node { return d.index }

// AddChild appends a new child element to parent and returns it. The caller
// must Renumber (or use NewDocument) before relying on IDs.
func (n *Node) AddChild(label string) *Node {
	c := &Node{Label: label, Parent: n}
	n.Children = append(n.Children, c)
	return c
}

// Descendants returns all proper descendants of n in preorder.
func (n *Node) Descendants() []*Node { return preorder(nil, n)[1:] }

// DescendantsOrSelf returns n followed by all proper descendants in preorder.
func (n *Node) DescendantsOrSelf() []*Node { return preorder(nil, n) }

// Depth reports the number of edges from the root element to n.
func (n *Node) Depth() int {
	d := 0
	for m := n.Parent; m != nil; m = m.Parent {
		d++
	}
	return d
}

// Height reports the height of the subtree rooted at n (a leaf has height 1),
// i.e. the number of levels, matching the X_L "levels" notion of §6.
func (n *Node) Height() int {
	h := 0
	for _, c := range n.Children {
		if ch := c.Height(); ch > h {
			h = ch
		}
	}
	return h + 1
}

// Path returns the label path from the root element to n, e.g. "dept/course".
func (n *Node) Path() string {
	var labels []string
	for m := n; m != nil; m = m.Parent {
		labels = append(labels, m.Label)
	}
	slices.Reverse(labels)
	return strings.Join(labels, "/")
}

func (n *Node) String() string {
	return fmt.Sprintf("%s#%d", n.Label, n.ID)
}

// NodeSet is a set of nodes, used as the result type of XPath evaluation.
type NodeSet map[*Node]struct{}

// Add inserts n into the set.
func (s NodeSet) Add(n *Node) { s[n] = struct{}{} }

// Has reports whether n is in the set.
func (s NodeSet) Has(n *Node) bool { _, ok := s[n]; return ok }

// IDs returns the sorted IDs of the set's members.
func (s NodeSet) IDs() []NodeID {
	ids := make([]NodeID, 0, len(s))
	for n := range s {
		ids = append(ids, n.ID)
	}
	slices.Sort(ids)
	return ids
}

// Equal reports whether two node sets contain exactly the same nodes.
func (s NodeSet) Equal(t NodeSet) bool {
	if len(s) != len(t) {
		return false
	}
	for n := range s {
		if !t.Has(n) {
			return false
		}
	}
	return true
}
