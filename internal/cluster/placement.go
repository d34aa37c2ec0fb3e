// Package cluster is the scale-out layer: it runs N shards of the existing
// store/engine stack behind a scatter-gather router. A shard is one store.
//
// Sharding model. The unit of placement is the document: a collection is a
// forest of top-level elements under the virtual root (ID 0), and a
// deterministic placement function assigns each document root — and with it
// the whole subtree — to one shard. Because the paper's XPath fragment
// evaluates every query per document (the virtual root is never an answer
// node and carries no qualifiers), the answer over the collection is exactly
// the disjoint union of per-shard answers; the (F, T, V) relational answer
// model makes the merge a k-way union of sorted node-ID sets. Node IDs are
// allocated globally by the router, so a clustered collection answers
// byte-identically to the same collection in a single store — the property
// the differential suite in this package proves.
//
// Failure handling. Scatter reads run under per-shard timeouts, and a call
// that fails as the shard's fault is made once more. A shard that still cannot
// answer is reported by name; ReadStrict turns any miss into an error,
// ReadQuorum tolerates a minority, ReadBestEffort serves whatever answered —
// both of the latter mark the answer Degraded. A downed shard fails the reads
// and the writes routed to it: placement is ownership, nothing reroutes.
package cluster

import (
	"hash/fnv"
	"sort"
)

// Placement deterministically assigns a document root to one of n shards.
// Implementations must be pure functions of (docRoot, n) so every router
// instance — and every recovery — agrees on ownership.
type Placement interface {
	// Owner returns the shard index in [0, n) that owns the document rooted
	// at docRoot.
	Owner(docRoot, n int) int
	// Name identifies the placement for logs and reports.
	Name() string
}

// HashPlacement places documents by an FNV-1a hash of the root node ID — the
// default, spreading any collection near-uniformly. Pluggable alternatives
// (e.g. DTD-partition subtree placement) implement Placement.
type HashPlacement struct{}

// Owner implements Placement.
func (HashPlacement) Owner(docRoot, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	var b [8]byte
	v := uint64(docRoot)
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	h.Write(b[:])
	return int(h.Sum32() % uint32(n))
}

// Name implements Placement.
func (HashPlacement) Name() string { return "hash" }

// RoundRobinPlacement places the i-th smallest document root on shard
// i mod n — a deterministic spread that keeps differential tests readable.
// It requires docRoot to be the document's ordinal, so it is mainly useful
// through SplitByOrdinal-style callers; Owner falls back to modulo on the
// raw ID.
type RoundRobinPlacement struct{}

// Owner implements Placement.
func (RoundRobinPlacement) Owner(docRoot, n int) int {
	if n <= 1 {
		return 0
	}
	return docRoot % n
}

// Name implements Placement.
func (RoundRobinPlacement) Name() string { return "roundrobin" }

// OrdinalPlacement places the i-th smallest of a fixed set of document roots
// on shard i mod n — a perfectly balanced deterministic spread even when the
// raw root IDs are not evenly distributed modulo the shard count (they rarely
// are: a root's ID is one past the previous document's last node). Roots
// outside the ranked set — documents created after the placement was built —
// fall back to modulo on the raw ID.
type OrdinalPlacement struct {
	rank map[int]int
}

// NewOrdinalPlacement ranks the given document roots. The placement is a pure
// function of the root set, so every router built from the same collection
// agrees on ownership.
func NewOrdinalPlacement(docRoots []int) OrdinalPlacement {
	sorted := make([]int, len(docRoots))
	copy(sorted, docRoots)
	sort.Ints(sorted)
	rank := make(map[int]int, len(sorted))
	for i, r := range sorted {
		rank[r] = i
	}
	return OrdinalPlacement{rank: rank}
}

// Owner implements Placement.
func (p OrdinalPlacement) Owner(docRoot, n int) int {
	if n <= 1 {
		return 0
	}
	if r, ok := p.rank[docRoot]; ok {
		return r % n
	}
	return docRoot % n
}

// Name implements Placement.
func (p OrdinalPlacement) Name() string { return "ordinal" }
