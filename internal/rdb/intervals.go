package rdb

import (
	"sort"
	"sync"

	"xpath2sql/internal/ra"
)

// Document-order interval encoding. Every stored node carries (begin, end,
// level): begin is the node's preorder position, end is begin plus the size
// of its subtree (half-open), level its depth under the root element. The
// containment test
//
//	y is a proper descendant of x  ⟺  begin[x] < begin[y] < end[x]
//
// turns the descendant axis into a sorted range scan: a per-type index of
// (begin, node, V) sorted by begin answers "all T-typed descendants of x"
// with two binary searches, skipping the least-fixpoint entirely. See
// DESIGN.md "Ordered storage & interval fast path".
//
// The encoding is a property of one document snapshot. It is adopted
// wholesale (AdoptIntervals after a bulk shred, RebuildIntervals from the
// ParentOf catalog) and invalidated wholesale on structural updates; a DB
// without a valid encoding simply answers every descendant step through the
// fixpoint, so staleness costs performance, never correctness.

// NodeInterval is the document-order encoding of one node.
type NodeInterval struct {
	Begin, End int64 // half-open preorder interval; End-Begin = subtree size
	Level      int32 // depth under the root element (root = 0)
}

// IntervalMode controls whether executions use the interval containment
// kernel for descendant steps.
type IntervalMode int

const (
	// IntervalAuto (the zero value) uses the interval kernel whenever the
	// database carries a valid encoding stamped with the program's DTD
	// fingerprint, falling back to the fixpoint plan otherwise.
	IntervalAuto IntervalMode = iota
	// IntervalOff disables the interval kernel and the fixpoint's interval
	// pruning: every descendant step runs the pure LFP plan. This is the
	// benchmark baseline.
	IntervalOff
	// IntervalForce errors when a descendant scan cannot use the kernel
	// (missing or mismatched encoding); differential tests use it to prove
	// the kernel actually ran.
	IntervalForce
)

func (m IntervalMode) String() string {
	switch m {
	case IntervalAuto:
		return "auto"
	case IntervalOff:
		return "off"
	case IntervalForce:
		return "force"
	}
	return "IntervalMode(?)"
}

// descIndexCacheCap bounds the per-snapshot descendant-index cache. The
// cache is keyed by relation pointer, so a long-lived DB whose relations are
// cloned by updates would otherwise accumulate dead entries.
const descIndexCacheCap = 64

// ivState is one immutable interval encoding plus its lazily built
// per-relation descendant indexes. The whole value is swapped atomically on
// adopt/rebuild/invalidate, so readers pin a consistent encoding; the index
// cache inside is mutex-guarded because concurrent queries may race to
// build the first index for a relation.
type ivState struct {
	iv map[int]NodeInterval

	mu    sync.Mutex
	byRel map[*Relation]*descIndex
}

// descIndex lists a stored relation's live rows sorted by the T node's
// begin position: begins[i] is the document-order key of rows[i]. A range
// [lo, hi) of begins inside a context node's interval is exactly its typed
// descendant set, and the range inside a document root's interval is the
// relation's share of that document — the run a document-scoped execution
// iterates in place of the whole relation (see scope.go).
type descIndex struct {
	begins []int64
	rows   []row
}

// AdoptIntervals installs a complete interval encoding, replacing any
// previous one. The map is adopted, not copied; the caller must not mutate
// it afterwards.
func (db *DB) AdoptIntervals(iv map[int]NodeInterval) {
	db.ivs.Store(&ivState{iv: iv, byRel: map[*Relation]*descIndex{}})
}

// HasIntervals reports whether the database carries a valid interval
// encoding.
func (db *DB) HasIntervals() bool { return db.ivs.Load() != nil }

// fingerprintMatches reports whether the program was translated against the
// DTD the database was shredded under — the soundness gate of the DescScan
// interval kernel (see DB.DTDFP).
func (db *DB) fingerprintMatches(p *ra.Program) bool {
	return p != nil && p.DTDFP != "" && p.DTDFP == db.DTDFP
}

// Interval returns the document-order interval of a node, when the database
// carries a valid encoding that covers it.
func (db *DB) Interval(id int) (NodeInterval, bool) {
	st := db.ivs.Load()
	if st == nil {
		return NodeInterval{}, false
	}
	n, ok := st.iv[id]
	return n, ok
}

// IntervalCount returns the number of encoded nodes (0 when invalid).
func (db *DB) IntervalCount() int {
	st := db.ivs.Load()
	if st == nil {
		return 0
	}
	return len(st.iv)
}

// InvalidateIntervals drops the interval encoding. Structural updates call
// it on the epoch they produce; queries on that epoch fall back to the
// fixpoint until RebuildIntervals runs.
func (db *DB) InvalidateIntervals() { db.ivs.Store(nil) }

// ShareIntervalsFrom adopts src's encoding (and DTD fingerprint) by
// reference — the copy-on-write hand-off between store epochs whose
// structure is unchanged. Relations cloned by the new epoch get fresh
// pointers and therefore fresh descendant indexes; untouched relations keep
// reusing the cached ones.
func (db *DB) ShareIntervalsFrom(src *DB) {
	db.DTDFP = src.DTDFP
	db.ivs.Store(src.ivs.Load())
}

// RebuildIntervals recomputes the interval encoding from the ParentOf
// catalog: a depth-first walk from the root element(s) with children visited
// in node-ID order. On a freshly shredded document (dense preorder IDs) this
// reproduces the original encoding exactly — begin = ID-1 — which is how
// pre-interval snapshots get their encoding on boot.
func (db *DB) RebuildIntervals() {
	children := make(map[int][]int, len(db.ParentOf))
	var roots []int
	for id, p := range db.ParentOf {
		if p == 0 {
			roots = append(roots, id)
			continue
		}
		children[p] = append(children[p], id)
	}
	for _, kids := range children {
		sort.Ints(kids)
	}
	sort.Ints(roots)

	iv := make(map[int]NodeInterval, len(db.ParentOf))
	var pos int64
	// Iterative DFS: a frame is open while its children are being walked;
	// End is stamped when the frame pops.
	type frame struct {
		id   int
		next int // next child offset
	}
	var stack []frame
	for _, root := range roots {
		iv[root] = NodeInterval{Begin: pos, Level: 0}
		pos++
		stack = append(stack[:0], frame{id: root})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			kids := children[f.id]
			if f.next < len(kids) {
				c := kids[f.next]
				f.next++
				iv[c] = NodeInterval{Begin: pos, Level: int32(len(stack))}
				pos++
				stack = append(stack, frame{id: c})
				continue
			}
			n := iv[f.id]
			n.End = pos
			iv[f.id] = n
			stack = stack[:len(stack)-1]
		}
	}
	db.AdoptIntervals(iv)
}

// descIndexFor returns the begin-sorted descendant index of a stored
// relation, building and caching it on first use. It reports false when the
// database has no valid encoding or the relation holds a node the encoding
// does not cover (a stale encoding after an uncoordinated mutation).
func (db *DB) descIndexFor(rel *Relation) (*descIndex, bool) {
	st := db.ivs.Load()
	if st == nil {
		return nil, false
	}
	return st.indexFor(rel)
}

// indexFor is descIndexFor against one pinned encoding.
func (st *ivState) indexFor(rel *Relation) (*descIndex, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if idx, ok := st.byRel[rel]; ok {
		return idx, idx != nil
	}
	idx := buildDescIndex(st.iv, rel)
	if len(st.byRel) >= descIndexCacheCap {
		clear(st.byRel)
	}
	st.byRel[rel] = idx // nil caches the negative answer too
	return idx, idx != nil
}

// buildDescIndex sorts a relation's live rows by the T node's begin
// position. Returns nil when some live T node has no interval.
func buildDescIndex(iv map[int]NodeInterval, rel *Relation) *descIndex {
	n := rel.Len()
	idx := &descIndex{
		begins: make([]int64, 0, n),
		rows:   make([]row, 0, n),
	}
	for i := range rel.rows {
		if rel.isDead(i) {
			continue
		}
		w := rel.rows[i]
		nv, ok := iv[int(w.t)]
		if !ok {
			return nil
		}
		idx.begins = append(idx.begins, nv.Begin)
		idx.rows = append(idx.rows, w)
	}
	sort.Sort((*descIndexSort)(idx))
	return idx
}

// rangeOf returns the index slice [lo, hi) of nodes strictly inside the
// interval (begin, end) — the proper descendants of the node owning it.
func (d *descIndex) rangeOf(begin, end int64) (lo, hi int) {
	lo = sort.Search(len(d.begins), func(i int) bool { return d.begins[i] > begin })
	hi = lo + sort.Search(len(d.begins)-lo, func(i int) bool { return d.begins[lo+i] >= end })
	return lo, hi
}

// runOf returns the index slice [lo, hi) of nodes whose begin lies in the
// half-open interval [begin, end) — the owner of the interval included.
func (d *descIndex) runOf(begin, end int64) (lo, hi int) {
	lo = sort.Search(len(d.begins), func(i int) bool { return d.begins[i] >= begin })
	hi = lo + sort.Search(len(d.begins)-lo, func(i int) bool { return d.begins[lo+i] >= end })
	return lo, hi
}

type descIndexSort descIndex

func (s *descIndexSort) Len() int           { return len(s.begins) }
func (s *descIndexSort) Less(i, j int) bool { return s.begins[i] < s.begins[j] }
func (s *descIndexSort) Swap(i, j int) {
	s.begins[i], s.begins[j] = s.begins[j], s.begins[i]
	s.rows[i], s.rows[j] = s.rows[j], s.rows[i]
}
