package rdb

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"xpath2sql/internal/ra"
)

// Document-order interval encoding. Every stored node carries (begin, end,
// level): begins increase in document order, a node's half-open interval
// [begin, end) holds the begins of exactly its subtree, level is its depth
// under the root element. The containment test
//
//	y is a proper descendant of x  ⟺  begin[x] < begin[y] < end[x]
//
// turns the descendant axis into a sorted range scan: a per-type index of
// (begin, node, V) sorted by begin answers "all T-typed descendants of x"
// with two binary searches, skipping the least-fixpoint entirely. See
// DESIGN.md "Ordered storage & interval fast path".
//
// Labels are compared, never subtracted: every consumer needs only that they
// are in document order. A bulk load (the shredders, RebuildIntervals) labels
// densely — begin is the preorder position, end − begin the subtree size — and
// a live store lets the labels drift apart from there: a delete leaves a gap,
// an insert takes labels out of the free range before its parent's end, and
// a relabel spreads a subtree out to make such room (relabel.go). So
// end − begin ≥ subtree size is all that holds in general. A DB without a
// valid encoding answers every descendant step through the fixpoint, so a
// missing encoding costs performance, never correctness.

// NodeInterval is the document-order encoding of one node.
type NodeInterval struct {
	Begin, End int64 // half-open interval over the begins of the node's subtree
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

// nodeState is one database's view of its node table: the table (immutable once
// the database is published, and sharing its chunks with the neighbouring
// epochs of a store), whether its label columns are a valid interval encoding,
// and this database's per-relation descendant indexes. The whole value is
// swapped atomically on adopt/rebuild/invalidate, so readers pin a consistent
// encoding. The index cache maps a relation to its entry under a mutex held
// only for the lookup: concurrent queries may ask for the same relation's
// index first, and one builds it while the others wait on its entry alone.
type nodeState struct {
	tab      *nodeTable
	labelled bool

	mu    sync.Mutex
	byRel map[*Relation]*descEntry
}

func newNodeState(tab *nodeTable, labelled bool) *nodeState {
	return &nodeState{tab: tab, labelled: labelled, byRel: map[*Relation]*descEntry{}}
}

// encoding pins the database's interval encoding, nil when it has no valid one.
func (db *DB) encoding() *nodeState {
	if st := db.nodes.Load(); st.labelled {
		return st
	}
	return nil
}

// descEntry is one relation's slot in an index cache: built once, by the first
// reader that asks, or carried in final by the update that made the database.
type descEntry struct {
	once sync.Once
	done atomic.Bool // idx is final
	idx  *descIndex  // nil once final: a live row's node has no label
}

// index returns the entry's index, building it from tab on first use.
func (e *descEntry) index(tab *nodeTable, rel *Relation) *descIndex {
	if !e.done.Load() {
		e.once.Do(func() {
			if buildHook != nil {
				buildHook(rel)
			}
			e.idx = buildDescIndex(tab, rel)
			e.done.Store(true)
		})
	}
	return e.idx
}

// final returns the entry's index without building it: ok is false while no
// reader has finished building it.
func (e *descEntry) final() (idx *descIndex, ok bool) {
	if !e.done.Load() {
		return nil, false
	}
	return e.idx, true
}

// carriedEntry is a final entry holding an index the update derived.
func carriedEntry(idx *descIndex) *descEntry {
	e := &descEntry{idx: idx}
	e.done.Store(true)
	return e
}

// buildHook, when set, runs before each index build; the package's tests set
// it to count builds and to hold one up.
var buildHook func(rel *Relation)

// indexPatch derives the index of cur, the clone an update wrote of the parent
// epoch's old, from idx, old's index there; nil leaves cur's index to its
// first reader. It reads no row of cur it did not write: one memmove of idx.
type indexPatch func(idx *descIndex, old, cur *Relation) *descIndex

// inherit seeds the cache from prev's: the entry of every relation db still
// shares with it, built or not, and the caller vouches that none of their
// labels moved; and, through patch, the index of every relation the update
// cloned that prev had built one for. Any other relation is indexed on its
// first read.
func (st *nodeState) inherit(prev *nodeState, db *DB, patch indexPatch) {
	prev.mu.Lock()
	defer prev.mu.Unlock()
	for rel, e := range prev.byRel {
		cur := db.Rels[rel.Name]
		if cur == rel {
			st.byRel[rel] = e
		} else if idx, ok := e.final(); ok && idx != nil && cur != nil {
			if p := patch(idx, rel, cur); p != nil {
				st.byRel[cur] = carriedEntry(p)
			}
		}
	}
}

// descIndex lists a stored relation's live rows sorted by the T node's
// begin position: begins[i] and ends[i] are the interval of rows[i]. A range
// [lo, hi) of begins inside a context node's interval is exactly its typed
// descendant set, and the range inside a document root's interval is the
// relation's share of that document — the run a document-scoped execution
// iterates in place of the whole relation (see scope.go).
type descIndex struct {
	begins, ends []int64
	rows         []row
}

// IntervalBuilder writes the label columns of a database's node table: a fresh
// encoding for a bulk load (DB.NewIntervalBuilder; the shredders fill it node
// by node instead of collecting a map first), or the patch a structural update
// makes to the encoding its database was derived with. It has one writer and
// is dead once adopted.
type IntervalBuilder struct {
	db  *DB
	tab *nodeTable
	// prev is the encoding a patched one started from; relabelled counts the
	// labels a relabel moved since (see relabel.go).
	prev       *nodeState
	relabelled int
}

// NewIntervalBuilder starts an empty encoding for a database under
// construction, written into its node table in place beside the catalog.
func (db *DB) NewIntervalBuilder() *IntervalBuilder {
	tab := db.nodes.Load().tab
	tab.clearLabels()
	return &IntervalBuilder{db: db, tab: tab}
}

// Set records the interval of one node; iv.Level must not be negative.
func (b *IntervalBuilder) Set(id int, iv NodeInterval) { b.tab.setLabel(id, iv) }

// SetNode records node id in the catalog — parent, and text value and element
// type as symbols of the database's Syms — beside its interval, in one write
// of the node's row: the node-table writer of a bulk loader whose relation
// writers run apart from it (shred.StreamShred).
func (b *IntervalBuilder) SetNode(id, parent int, sym, typ int32, iv NodeInterval) {
	b.tab.put(id, int32(parent), sym, typ)
	b.tab.setLabel(id, iv)
}

// Adopt installs the built encoding on the database, replacing any previous
// one. A patched encoding that moved no label keeps the descendant indexes of
// the relations the database shares with the one it was derived from, and
// splices the inserted rows into those of the relations it cloned.
func (b *IntervalBuilder) Adopt() {
	st := newNodeState(b.tab, true)
	if b.prev != nil && b.relabelled == 0 {
		st.inherit(b.prev, b.db, st.spliceInserted)
	}
	b.db.nodes.Store(st)
}

// AdoptIntervals installs a complete interval encoding, replacing any
// previous one. Bulk loaders fill an IntervalBuilder directly instead of
// collecting a map first.
func (db *DB) AdoptIntervals(iv map[int]NodeInterval) {
	b := db.NewIntervalBuilder()
	for id, n := range iv {
		b.Set(id, n)
	}
	b.Adopt()
}

// HasIntervals reports whether the database carries a valid interval
// encoding.
func (db *DB) HasIntervals() bool { return db.encoding() != nil }

// fingerprintMatches reports whether the program was translated against the
// DTD the database was shredded under — the soundness gate of the DescScan
// interval kernel (see DB.DTDFP).
func (db *DB) fingerprintMatches(p *ra.Program) bool {
	return p != nil && p.DTDFP != "" && p.DTDFP == db.DTDFP
}

// Interval returns the document-order interval of a node, when the database
// carries a valid encoding that covers it.
func (db *DB) Interval(id int) (NodeInterval, bool) {
	st := db.encoding()
	if st == nil {
		return NodeInterval{}, false
	}
	return st.tab.get(id)
}

// IntervalCount returns the number of encoded nodes (0 when invalid).
func (db *DB) IntervalCount() int {
	st := db.encoding()
	if st == nil {
		return 0
	}
	return st.tab.labels
}

// InvalidateIntervals drops the interval encoding; queries fall back to the
// fixpoint until RebuildIntervals runs.
func (db *DB) InvalidateIntervals() { db.nodes.Store(newNodeState(db.nodes.Load().tab, false)) }

// DeriveDelete ends a delete: db, derived from prev, no longer holds the
// subtree rooted at root, and moved no label. It takes over prev's descendant
// indexes of the relations the two still share, and cuts the subtree's range
// out of prev's index of each relation it cloned; call it once db's relations
// are final.
func (db *DB) DeriveDelete(prev *DB, root int) {
	st, was := db.encoding(), prev.encoding()
	if st == nil || was == nil {
		return
	}
	iv, ok := was.tab.get(root)
	st.inherit(was, db, func(idx *descIndex, old, cur *Relation) *descIndex {
		if !ok {
			return nil
		}
		return idx.cut(iv, len(old.rows)-len(cur.rows))
	})
}

// DeriveText ends a text update of node id: db, derived from prev, moved no
// label. It takes over prev's descendant indexes of the relations the two
// still share, and gives the relation it cloned prev's index with the node's
// new value.
func (db *DB) DeriveText(prev *DB, id int) {
	st, was := db.encoding(), prev.encoding()
	if st == nil || was == nil {
		return
	}
	st.inherit(was, db, func(idx *descIndex, _, _ *Relation) *descIndex {
		iv, ok := st.tab.get(id)
		if !ok {
			return nil
		}
		return idx.revalued(iv.Begin, int32(id), st.tab.valSym(id))
	})
}

// RebuildIntervals recomputes the dense interval encoding from the catalog's
// parent column: a depth-first walk from the root element(s) with children
// visited in node-ID order, begin the preorder position, end − begin the
// subtree size. On a freshly shredded document (dense preorder IDs) this
// reproduces the original encoding exactly — begin = ID-1 — which is how
// pre-interval snapshots get their encoding on boot. The new labels go into a
// table of their own, swapped in whole: a reader keeps the encoding it pinned.
func (db *DB) RebuildIntervals() {
	tab := db.nodes.Load().tab.derive()
	children := make(map[int32][]int32, tab.nodes)
	tab.eachNode(func(id int, parent, _, _ int32) { // ascending, so every list comes out sorted
		children[parent] = append(children[parent], int32(id))
	})
	w := walkTree(0, func(buf []int32, f int32) []int32 { return append(buf, children[f]...) })
	tab.clearLabels()
	b := &IntervalBuilder{db: db, tab: tab}
	// The walk opens with the virtual root, which has no label: the first
	// root element is position 0, level 0.
	b.spread(w, 1, -1, 0, -1)
	b.Adopt()
}

// errPerRunIndex refuses a pooled temporary or a scoped view: cached by its
// pointer, which the arena recycles, an index would answer for the next one.
var errPerRunIndex = errors.New("rdb: descendant index asked of a per-run relation")

// strictPerRun turns that refusal into a panic; the package's tests set it.
var strictPerRun bool

// indexFor returns a stored relation's begin-sorted descendant index, built
// on first use and cached, the negative answer too; errNoDescKernel if the
// relation holds a node the encoding does not cover (a stale encoding after an
// uncoordinated mutation). The build runs outside the cache's lock: a reader
// of another relation does not wait for it.
func (st *nodeState) indexFor(rel *Relation) (*descIndex, error) {
	if rel.pooled || rel.base != nil {
		if strictPerRun {
			panic(errPerRunIndex)
		}
		return nil, errPerRunIndex
	}
	st.mu.Lock()
	e, ok := st.byRel[rel]
	if !ok {
		e = new(descEntry)
		st.byRel[rel] = e
	}
	st.mu.Unlock()
	idx := e.index(st.tab, rel)
	if idx == nil {
		return nil, errNoDescKernel
	}
	return idx, nil
}

// buildDescIndex sorts a relation's live rows by the T node's begin
// position. Returns nil when some live T node has no interval.
func buildDescIndex(tab *nodeTable, rel *Relation) *descIndex {
	n := rel.Len()
	idx := &descIndex{
		begins: make([]int64, 0, n),
		ends:   make([]int64, 0, n),
		rows:   make([]row, 0, n),
	}
	for i := range rel.rows {
		if rel.isDead(i) {
			continue
		}
		w := rel.rows[i]
		nv, ok := tab.get(int(w.t))
		if !ok {
			return nil
		}
		idx.begins = append(idx.begins, nv.Begin)
		idx.ends = append(idx.ends, nv.End)
		idx.rows = append(idx.rows, w)
	}
	sort.Sort((*descIndexSort)(idx))
	return idx
}

// spliceInserted derives the index of cur, which an insert that moved no label
// made by appending rows to a clone of old: the new rows' begins, looked up in
// st's table, form one block inside the parent's free range, so sorted they go
// in at one position. It returns nil — leaving cur to be indexed on first read
// — when the rows do not fit that shape.
func (st *nodeState) spliceInserted(idx *descIndex, old, cur *Relation) *descIndex {
	n := len(idx.rows)
	if n != len(old.rows) || len(cur.rows) <= n || cur.nDead > 0 {
		return nil
	}
	add := &descIndex{rows: slices.Clone(cur.rows[n:])}
	for _, w := range add.rows {
		nv, ok := st.tab.get(int(w.t))
		if !ok {
			return nil
		}
		add.begins = append(add.begins, nv.Begin)
		add.ends = append(add.ends, nv.End)
	}
	sort.Sort((*descIndexSort)(add))
	at := firstAbove(idx.begins, 0, add.begins[0])
	if at > 0 && idx.begins[at-1] == add.begins[0] || at < n && idx.begins[at] <= add.begins[len(add.begins)-1] {
		return nil
	}
	return &descIndex{
		begins: slices.Concat(idx.begins[:at], add.begins, idx.begins[at:]),
		ends:   slices.Concat(idx.ends[:at], add.ends, idx.ends[at:]),
		rows:   slices.Concat(idx.rows[:at], add.rows, idx.rows[at:]),
	}
}

// cut returns the index without the rows whose begin lies in iv — the subtree
// a delete removed — or nil unless there are exactly want of them.
func (d *descIndex) cut(iv NodeInterval, want int) *descIndex {
	lo, hi := d.rangeOf(0, iv.Begin-1, iv.End)
	if hi-lo != want {
		return nil
	}
	return &descIndex{
		begins: slices.Concat(d.begins[:lo], d.begins[hi:]),
		ends:   slices.Concat(d.ends[:lo], d.ends[hi:]),
		rows:   slices.Concat(d.rows[:lo], d.rows[hi:]),
	}
}

// revalued returns the index with node t, which begins at begin, holding the
// text value v: its labels shared, its rows copied. Nil when t is not there.
func (d *descIndex) revalued(begin int64, t, v int32) *descIndex {
	at := firstAbove(d.begins, 0, begin-1)
	if at == len(d.begins) || d.begins[at] != begin || d.rows[at].t != t {
		return nil
	}
	rows := slices.Clone(d.rows)
	rows[at].v = v
	return &descIndex{begins: d.begins, ends: d.ends, rows: rows}
}

// VerifyDescIndexes compares every descendant index db's cache holds with one
// built afresh from its relation — begins, ends and rows, field by field — and
// returns how many it compared and the first difference. It is the oracle of
// the indexes an update carried over by patching the parent epoch's.
func (db *DB) VerifyDescIndexes() (int, error) {
	st := db.encoding()
	if st == nil {
		return 0, nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for rel, e := range st.byRel {
		idx, ok := e.final()
		if !ok {
			continue
		}
		n++
		want := buildDescIndex(st.tab, rel)
		if idx == nil || want == nil {
			if idx != want {
				return n, fmt.Errorf("rdb: %s: cached index %v, a rebuild %v", rel.Name, idx != nil, want != nil)
			}
			continue
		}
		if len(idx.rows) != len(want.rows) || len(idx.begins) != len(want.rows) || len(idx.ends) != len(want.rows) {
			return n, fmt.Errorf("rdb: %s: cached index of %d/%d/%d entries, a rebuild of %d", rel.Name, len(idx.begins), len(idx.ends), len(idx.rows), len(want.rows))
		}
		for i := range want.rows {
			if idx.begins[i] != want.begins[i] || idx.ends[i] != want.ends[i] || idx.rows[i] != want.rows[i] {
				return n, fmt.Errorf("rdb: %s: entry %d is [%d, %d) %+v, a rebuild's [%d, %d) %+v", rel.Name, i,
					idx.begins[i], idx.ends[i], idx.rows[i], want.begins[i], want.ends[i], want.rows[i])
			}
		}
	}
	return n, nil
}

// rangeOf returns the index slice [lo, hi) of nodes strictly inside the
// interval (begin, end) — the proper descendants of the node owning it —
// searching forward from position from, which must not be past lo. Sources
// taken in begin order only move it forward, and a gallop finds a range near
// the last one in a few compares.
func (d *descIndex) rangeOf(from int, begin, end int64) (lo, hi int) {
	lo = firstAbove(d.begins, from, begin)
	return lo, firstAbove(d.begins, lo, end-1)
}

// firstAbove returns the first position from i on whose begin exceeds x:
// steps doubling from i bracket it, a binary search finds it in the bracket.
func firstAbove(bs []int64, i int, x int64) int {
	lo, hi := i, i
	for step := 1; hi < len(bs) && bs[hi] <= x; step <<= 1 {
		lo, hi = hi+1, hi+step
	}
	for hi = min(hi, len(bs)); lo < hi; {
		if m := int(uint(lo+hi) >> 1); bs[m] <= x {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

type descIndexSort descIndex

func (s *descIndexSort) Len() int           { return len(s.begins) }
func (s *descIndexSort) Less(i, j int) bool { return s.begins[i] < s.begins[j] }
func (s *descIndexSort) Swap(i, j int) {
	s.begins[i], s.begins[j] = s.begins[j], s.begins[i]
	s.ends[i], s.ends[j] = s.ends[j], s.ends[i]
	s.rows[i], s.rows[j] = s.rows[j], s.rows[i]
}
