package shred

import (
	"runtime"
	"strings"
	"testing"

	"xpath2sql/internal/workload"
	"xpath2sql/internal/xmlgen"
	"xpath2sql/internal/xmltree"
)

// heapPerNode is the live heap, in bytes, that a bulk-loaded database may hold
// per node after collection, on the 1 MiB dept document of
// TestIngestHeapPerNode (52 465 elements). A node is one relation row and one
// node-table row, with its type in the row; at go1.24 on linux/amd64 Shred
// holds 65.6 B and StreamShred 66.8 B, and ~88 B and ~90 B while both also
// filled a map of node types.
const heapPerNode = 70

// liveHeap is the heap in use after two full collections: a sync.Pool's
// contents survive the first in its victim cache.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestIngestHeapPerNode gates the live heap per node of a database that Shred
// and StreamShred build from one fixed generated dept document. The document
// text and its parsed tree stay alive across every heap reading, so each
// difference is the database alone.
func TestIngestHeapPerNode(t *testing.T) {
	d := workload.Dept()
	var b strings.Builder
	if _, err := xmlgen.StreamGenerate(&b, d, xmlgen.StreamOptions{XL: 8, XR: 6, Seed: 1, TargetBytes: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	doc, err := xmltree.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	h0 := liveHeap()
	tree, err := Shred(doc, d)
	if err != nil {
		t.Fatal(err)
	}
	h1 := liveHeap()
	stream, err := StreamShred(strings.NewReader(text), d, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h2 := liveHeap()
	for _, c := range []struct {
		name  string
		nodes int
		heap  float64
	}{
		{"Shred", tree.NumNodes(), float64(h1) - float64(h0)},
		{"StreamShred", stream.NumNodes(), float64(h2) - float64(h1)},
	} {
		perNode := c.heap / float64(c.nodes)
		t.Logf("%s: %d nodes, %.1f B/node live", c.name, c.nodes, perNode)
		if perNode > heapPerNode {
			t.Errorf("%s holds %.1f B of live heap per node, more than %d", c.name, perNode, heapPerNode)
		}
	}
	runtime.KeepAlive(text)
	runtime.KeepAlive(doc)
	runtime.KeepAlive(tree)
	runtime.KeepAlive(stream)
}
