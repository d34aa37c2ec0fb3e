package rdb_test

import (
	"bytes"
	"strings"
	"testing"

	"xpath2sql/internal/cluster"
	"xpath2sql/internal/rdb"
	"xpath2sql/internal/shred"
	"xpath2sql/internal/workload"
	"xpath2sql/internal/xmlgen"
	"xpath2sql/internal/xmltree"
)

// TestBulkLoadsHashNothing counts the pair-set work of every bulk loader at
// 1×, 4× and 16× a dept document: Shred, StreamShred, Load of the Save image,
// and cluster's collection builders (BuildCollection, SplitCollection,
// Rebase). Each mints every node it stores, so none inserts into a pair set
// or holds one, none probes a relation — which would build its T index —
// none writes the Labels map, the node's type being a node-table column, and
// each builds the database Shred does.
func TestBulkLoadsHashNothing(t *testing.T) {
	d := workload.Dept()
	for _, scale := range []int{1, 4, 16} {
		var text strings.Builder
		if _, err := xmlgen.StreamGenerate(&text, d, xmlgen.StreamOptions{XL: 8, XR: 4, Seed: 1, TargetBytes: int64(scale) * 1000 * 20}); err != nil {
			t.Fatal(err)
		}
		doc, err := xmltree.Parse(text.String())
		if err != nil {
			t.Fatal(err)
		}
		tree, err := shred.Shred(doc, d)
		if err != nil {
			t.Fatal(err)
		}
		want := image(t, tree)
		stream, err := shred.StreamShred(strings.NewReader(text.String()), d, shred.StreamOptions{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := rdb.Load(bytes.NewReader(want))
		if err != nil {
			t.Fatal(err)
		}
		collection, err := cluster.BuildCollection(d, []*rdb.DB{tree, stream})
		if err != nil {
			t.Fatal(err)
		}
		parts, _, err := cluster.SplitCollection(d, collection, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		rebased, err := cluster.Rebase(d, tree, 1<<24)
		if err != nil {
			t.Fatal(err)
		}
		built := map[string]*rdb.DB{
			"Shred": tree, "StreamShred": stream, "Load": loaded,
			"BuildCollection": collection, "SplitCollection[0]": parts[0], "SplitCollection[1]": parts[1], "Rebase": rebased,
		}
		for name, db := range built {
			if n := len(db.Labels); n != 0 {
				t.Errorf("%d× %s: %d Labels entries for %d nodes; want none", scale, name, n, db.NumNodes())
			}
			if inserts, slots := rdb.StoredSetInserts(db); inserts != 0 || slots != 0 {
				t.Errorf("%d× %s: %d pair-set inserts, %d slots held; want 0 and 0", scale, name, inserts, slots)
			}
			for rel, r := range db.Rels {
				if n := r.IndexBuilds(); n != 0 {
					t.Errorf("%d× %s: %s built %d indexes while loading, want none", scale, name, rel, n)
				}
			}
		}
		for name, db := range map[string]*rdb.DB{"StreamShred": stream, "Load": loaded} {
			if !bytes.Equal(image(t, db), want) {
				t.Errorf("%d× %s: the Save image differs from Shred's", scale, name)
			}
		}
		if n := collection.NumNodes(); n != 2*tree.NumNodes() {
			t.Errorf("%d× BuildCollection: %d nodes, want %d", scale, n, 2*tree.NumNodes())
		}
		t.Logf("%d×: %d nodes", scale, tree.NumNodes())
	}
}

// image returns db's Save image.
func image(t *testing.T, db *rdb.DB) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := db.Save(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}
