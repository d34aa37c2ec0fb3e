package store

import (
	"fmt"

	"xpath2sql/internal/dtd"
	"xpath2sql/internal/rdb"
	"xpath2sql/internal/xmltree"
)

// Incremental DTD validation: an update is admitted iff the mutated document
// would still conform to the DTD. Because conformance is per-node (each
// element's child-label multiset must be in the language of its type's
// production, §2.1), only two places need re-checking: the parent the update
// touches, and — for inserts — the interior of the new subtree. Nothing else
// in the document can change conformance.

// childCounts returns the child-label multiset of node id, whose type is
// label, read from the epoch's edge relations of the child types the
// production mentions (children of id are the tuples holding it as F).
func (s *Store) childCounts(db *rdb.DB, label string, id int) map[string]int {
	counts := map[string]int{}
	for _, k := range s.kids[label] {
		if rel, ok := db.Rels[k.rel]; ok {
			if n := rel.CountF(id); n > 0 {
				counts[k.typ] = n
			}
		}
	}
	return counts
}

// validateInsert checks that parentID exists, that its production admits one
// more child labeled like the fragment root, and that the fragment's
// interior conforms to the DTD.
func (s *Store) validateInsert(db *rdb.DB, parentID int, frag *xmltree.Document) error {
	if parentID == 0 {
		return fmt.Errorf("%w: cannot insert a second root element under the virtual root", ErrInvalid)
	}
	plabel, err := labelOf(db, parentID, "parent")
	if err != nil {
		return err
	}
	prod, ok := s.dtd.Prods[plabel]
	if !ok {
		return fmt.Errorf("%w: parent type %q has no production", ErrInvalid, plabel)
	}
	counts := s.childCounts(db, plabel, parentID)
	counts[frag.Root.Label]++
	if !dtd.MatchesUnordered(prod, counts) {
		return fmt.Errorf("%w: children of %s#%d would not match production %s after inserting <%s>",
			ErrInvalid, plabel, parentID, prod, frag.Root.Label)
	}
	return s.validateSubtree(frag.Root)
}

// validateSubtree checks that every element of the fragment is declared and
// that each element's child multiset matches its type's production.
func (s *Store) validateSubtree(n *xmltree.Node) error {
	prod, ok := s.dtd.Prods[n.Label]
	if !ok {
		return fmt.Errorf("%w: element type %q is not declared in the DTD", ErrInvalid, n.Label)
	}
	counts := map[string]int{}
	for _, c := range n.Children {
		counts[c.Label]++
	}
	if !dtd.MatchesUnordered(prod, counts) {
		return fmt.Errorf("%w: children of fragment element <%s> do not match production %s",
			ErrInvalid, n.Label, prod)
	}
	for _, c := range n.Children {
		if err := s.validateSubtree(c); err != nil {
			return err
		}
	}
	return nil
}

// validateDelete checks that nodeID exists, is not the root element, and
// that its parent's production admits the remaining children.
func (s *Store) validateDelete(db *rdb.DB, nodeID int) error {
	label, err := labelOf(db, nodeID, "node")
	if err != nil {
		return err
	}
	parent := db.Parent(nodeID)
	if parent == 0 {
		return fmt.Errorf("%w: cannot delete the root element", ErrInvalid)
	}
	plabel, err := labelOf(db, parent, "parent")
	if err != nil {
		return err
	}
	prod, ok := s.dtd.Prods[plabel]
	if !ok {
		return fmt.Errorf("%w: parent type %q has no production", ErrInvalid, plabel)
	}
	counts := s.childCounts(db, plabel, parent)
	counts[label]--
	if counts[label] <= 0 {
		delete(counts, label)
	}
	if !dtd.MatchesUnordered(prod, counts) {
		return fmt.Errorf("%w: children of %s#%d would not match production %s after deleting %s#%d",
			ErrInvalid, plabel, parent, prod, label, nodeID)
	}
	return nil
}

// validateUpdateText checks that nodeID exists. Text values are not
// constrained by the DTD grammar (the data model attaches PCDATA to any
// element), so existence is the only check.
func (s *Store) validateUpdateText(db *rdb.DB, nodeID int) error {
	_, err := labelOf(db, nodeID, "node")
	return err
}

// labelOf returns the element type of a node the update names, what it is to
// the update: ErrUnknownNode when the node table does not hold it, ErrCorrupt
// when it does but the catalog records no type for it.
func labelOf(db *rdb.DB, id int, what string) (string, error) {
	if !db.HasNode(id) {
		return "", fmt.Errorf("%w: %s %d", ErrUnknownNode, what, id)
	}
	label, ok := db.Label(id)
	if !ok {
		return "", fmt.Errorf("%w: %s %d is stored without an element type", ErrCorrupt, what, id)
	}
	return label, nil
}
