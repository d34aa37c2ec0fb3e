package shred

import (
	"strings"
	"testing"

	"xpath2sql/internal/difftest"
	"xpath2sql/internal/dtd"
	"xpath2sql/internal/rdb"
	"xpath2sql/internal/workload"
	"xpath2sql/internal/xmltree"
)

// checkIntervalInvariants verifies the interval encoding of a shredded
// database against its source document: every node carries an interval, a
// parent's interval strictly contains each child's, siblings are disjoint
// and ordered, the interval width equals the subtree size, and the level is
// the tree depth.
func checkIntervalInvariants(t *testing.T, db *rdb.DB, doc *xmltree.Document) {
	t.Helper()
	if !db.HasIntervals() {
		t.Fatal("shredded database has no intervals")
	}
	if got, want := db.IntervalCount(), doc.Size(); got != want {
		t.Fatalf("interval count %d, document has %d elements", got, want)
	}
	for _, n := range doc.Nodes() {
		iv, ok := db.Interval(int(n.ID))
		if !ok {
			t.Fatalf("node %d (%s) has no interval", n.ID, n.Label)
		}
		if want := int64(len(n.Descendants()) + 1); iv.End-iv.Begin != want {
			t.Fatalf("node %d (%s): width %d, subtree size %d", n.ID, n.Label, iv.End-iv.Begin, want)
		}
		if want := int32(n.Depth()); iv.Level != want {
			t.Fatalf("node %d (%s): level %d, depth %d", n.ID, n.Label, iv.Level, want)
		}
		var prevEnd int64 = iv.Begin
		for _, c := range n.Children {
			civ, ok := db.Interval(int(c.ID))
			if !ok {
				t.Fatalf("child %d (%s) has no interval", c.ID, c.Label)
			}
			// Strict containment in the parent.
			if !(iv.Begin < civ.Begin && civ.End <= iv.End) {
				t.Fatalf("child %d [%d,%d) not contained in parent %d [%d,%d)",
					c.ID, civ.Begin, civ.End, n.ID, iv.Begin, iv.End)
			}
			// Disjoint from the previous sibling, in document order.
			if civ.Begin < prevEnd {
				t.Fatalf("child %d [%d,%d) overlaps its preceding sibling (prev end %d)",
					c.ID, civ.Begin, civ.End, prevEnd)
			}
			prevEnd = civ.End
		}
	}
}

// TestShredIntervalInvariants: the invariants hold for random documents of
// every workload DTD, through both the tree shredder and the streaming
// shredder, and RebuildIntervals reproduces the same encoding from the
// relations alone.
func TestShredIntervalInvariants(t *testing.T) {
	dtds := map[string]*dtd.DTD{
		"dept":  workload.Dept(),
		"cross": workload.Cross(),
		"gedml": workload.GedML(),
	}
	for name, d := range dtds {
		for seed := int64(0); seed < 3; seed++ {
			doc := difftest.Doc(t, d, seed, 400)
			db, err := Shred(doc, d)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			checkIntervalInvariants(t, db, doc)

			sdb, err := StreamShred(strings.NewReader(doc.Serialize()), d, StreamOptions{})
			if err != nil {
				t.Fatalf("%s seed %d: stream: %v", name, seed, err)
			}
			checkIntervalInvariants(t, sdb, doc)

			// Rebuilding from the relations must reproduce the encoding.
			db.RebuildIntervals()
			checkIntervalInvariants(t, db, doc)
			for _, n := range doc.Nodes() {
				a, _ := db.Interval(int(n.ID))
				b, _ := sdb.Interval(int(n.ID))
				if a != b {
					t.Fatalf("%s seed %d: node %d: rebuilt %+v, streamed %+v", name, seed, n.ID, a, b)
				}
			}
		}
	}
}
