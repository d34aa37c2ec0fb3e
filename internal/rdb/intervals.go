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
// whether they keep every label of the database it was derived from (carry),
// and this database's per-relation descendant indexes. The whole value is
// swapped atomically on adopt/rebuild/invalidate, so readers pin a consistent
// encoding. The index cache maps a relation to its entry under a mutex held
// only for the lookup: concurrent queries may ask for the same relation's
// index first, and one builds it while the others wait on its entry alone.
type nodeState struct {
	tab             *nodeTable
	labelled, carry bool

	mu    sync.Mutex
	byRel map[*Relation]*descEntry
}

func newNodeState(tab *nodeTable, labelled, carry bool) *nodeState {
	return &nodeState{tab: tab, labelled: labelled, carry: carry, byRel: map[*Relation]*descEntry{}}
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
			e.idx = buildDescIndex(tab, rel, 0)
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

// buildHook, when set, runs before each index build; the package's tests set
// it to count builds and to hold one up.
var buildHook func(rel *Relation)

// inherit seeds the cache from prev's, whose labels st keeps: the entry of
// every relation db still shares with it, built or not, and the index derived
// from prev's of every relation whose version in db was cloned from prev's and
// that prev had built one for. Any other relation is indexed on its first
// read.
func (st *nodeState) inherit(prev *nodeState, db *DB) {
	prev.mu.Lock()
	defer prev.mu.Unlock()
	for rel, e := range prev.byRel {
		cur := db.Rels[rel.Name]
		if cur == rel {
			st.byRel[rel] = e
		} else if idx, ok := e.final(); ok && idx != nil && cur != nil && cur.src == rel {
			if d := st.derived(prev, idx, cur); d != nil {
				c := &descEntry{idx: d}
				c.done.Store(true)
				st.byRel[cur] = c
			}
		}
	}
}

// derived is the one rule by which a descendant index crosses into the next
// epoch. idx is the index of cur.src in the parent epoch, whose labels are
// was's, and cur recorded what the update wrote since (Relation.src). The
// entries of the rows it killed go, each found by its begin in was's table;
// the rows it appended come in, sorted by their begins in st's table. The
// runs between those change points are copied once, and an array the update
// leaves as it was is shared: a text update, whose new row takes its node's
// labels over, copies only rows. It returns nil — cur is indexed on its first
// read — when a row is not where the record puts it.
func (st *nodeState) derived(was *nodeState, idx *descIndex, cur *Relation) *descIndex {
	drop := make([]int, 0, len(cur.killed))
	for _, w := range cur.killed {
		nv, ok := was.tab.get(int(w.t))
		at := firstAbove(idx.begins, 0, nv.Begin-1)
		if !ok || at == len(idx.rows) || idx.begins[at] != nv.Begin || idx.rows[at].t != w.t {
			return nil
		}
		drop = append(drop, at)
	}
	slices.Sort(drop)
	add := buildDescIndex(st.tab, cur, cur.born)
	n := cur.Len()
	if add == nil || len(idx.rows)-len(drop)+len(add.rows) != n {
		return nil
	}
	if len(drop)+len(add.rows) == 0 {
		return idx
	}
	// same: each new row has the labels of the dropped one it replaces.
	same := len(drop) == len(add.rows)
	for k := 0; same && k < len(drop); k++ {
		same = idx.begins[drop[k]] == add.begins[k] && idx.ends[drop[k]] == add.ends[k]
	}
	out := &descIndex{begins: idx.begins, ends: idx.ends, rows: make([]row, 0, n)}
	if !same {
		out.begins, out.ends = make([]int64, 0, n), make([]int64, 0, n)
	}
	put := func(from *descIndex, lo, hi int) { // from's entries [lo, hi)
		if !same {
			out.begins = append(out.begins, from.begins[lo:hi]...)
			out.ends = append(out.ends, from.ends[lo:hi]...)
		}
		out.rows = append(out.rows, from.rows[lo:hi]...)
	}
	i := 0 // the next entry of idx to copy
	for a, d := 0, 0; a < len(add.rows) || d < len(drop); {
		if d < len(drop) && (a == len(add.rows) || idx.begins[drop[d]] <= add.begins[a]) {
			put(idx, i, drop[d])
			i, d = drop[d]+1, d+1
			continue
		}
		j := firstAbove(idx.begins, i, add.begins[a])
		put(idx, i, j)
		put(add, a, a+1)
		i, a = j, a+1
	}
	put(idx, i, len(idx.rows))
	return out
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
// by node instead of collecting a map first), or the labels an insert adds to
// the encoding its database was derived with, where relabelled counts the
// labels a relabel moved to make room (see relabel.go). It has one writer and
// is dead once adopted.
type IntervalBuilder struct {
	db         *DB
	tab        *nodeTable
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
// of the node's row: the node-table write of a bulk loader that appends the
// relation row itself (shred.StreamShred's loader).
func (b *IntervalBuilder) SetNode(id, parent int, sym, typ int32, iv NodeInterval) {
	b.tab.put(id, int32(parent), sym, typ)
	b.tab.setLabel(id, iv)
}

// Adopt installs the built encoding on the database, replacing any previous
// one: its labels are its own, so no descendant index carries over into it.
func (b *IntervalBuilder) Adopt() { b.db.nodes.Store(newNodeState(b.tab, true, false)) }

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
func (db *DB) InvalidateIntervals() { db.nodes.Store(newNodeState(db.nodes.Load().tab, false, false)) }

// DeriveIndexes ends an update: db, derived from prev, is final — relations,
// labels and dictionary — and about to be published. Unless the update moved
// a label of prev's, db takes over prev's descendant indexes, each one shared
// or derived by what the update's versions of the relation wrote (derived);
// either way those records are then dropped, so the next update's start from
// db. It runs once per update, whatever the update did.
func (db *DB) DeriveIndexes(prev *DB) {
	st, was := db.encoding(), prev.encoding()
	if st != nil && was != nil && st.carry {
		st.inherit(was, db)
	}
	for _, r := range db.Rels {
		if r.src != nil {
			r.src, r.killed = nil, nil
		}
	}
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

// buildDescIndex sorts a relation's live rows from position from on by the T
// node's begin position. Returns nil when some live T node has no interval.
func buildDescIndex(tab *nodeTable, rel *Relation, from int) *descIndex {
	n := min(rel.Len(), len(rel.rows)-from)
	idx := &descIndex{
		begins: make([]int64, 0, n),
		ends:   make([]int64, 0, n),
		rows:   make([]row, 0, n),
	}
	for i := from; i < len(rel.rows); i++ {
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

// VerifyDescIndexes compares every descendant index db's cache holds with one
// built afresh from its relation — begins, ends and rows, field by field — and
// returns how many it compared and the first difference. It is the oracle of
// the indexes DeriveIndexes carried over from the parent epoch's.
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
		want := buildDescIndex(st.tab, rel, 0)
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
