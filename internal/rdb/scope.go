package rdb

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// Document scope. A run with Exec.Doc set evaluates its program over the
// sub-database of one document: the rows of every stored relation whose T node
// lies in the document root's preorder interval [begin, end). The scope is a
// run parameter, never part of the ra.Program, so one cached plan serves every
// document.
//
// The executor keeps one invariant under a scope — every relation it holds
// mentions only in-scope nodes and the virtual root 0 — by bounding the reads
// that could break it and leaving the rest alone:
//
//   - A scan of a stored relation (Base, the From side of DescScan, R_id)
//     iterates the relation's run inside [begin, end) in its begin-sorted
//     descendant index: a contiguous slice, found by two binary searches,
//     wrapped as a read-only view (Relation.base).
//   - An index probe keyed by an in-scope node needs no bound: rows with
//     T = x are x's own, rows with F = x are x's children, and the To side of
//     a DescScan lies inside the source's interval. Views therefore probe the
//     base relation's shared, cached indexes.
//   - The one key in every document's scope is the virtual root: an F probe
//     keyed by 0 (RootSeed ⋈ R, a semijoin witness at the top) finds all
//     document roots, so a view's F index answers key 0 with the scope's own
//     root row only (colIndex.scoped). SelectRoot needs nothing: it filters a
//     scan, which is already bounded.
//
// Scoping needs a valid interval encoding and nothing else; the DTD
// fingerprint gate stays DescScan's, because a run is sound for any program
// while containment-for-descendants is sound only for a matching DTD.

// Typed scope failures. Serving layers map ErrNotDocumentRoot to "unknown
// node"; ErrScopeNeedsIntervals means the database cannot answer scoped
// requests at all until its encoding is rebuilt.
var (
	ErrNotDocumentRoot     = errors.New("rdb: not a document root")
	ErrScopeNeedsIntervals = errors.New("rdb: document scope needs a valid interval encoding")
)

// docScope is one run's resolved scope: the root, its interval, and the
// encoding both were read from (pinned, so every view of the run is cut from
// the same encoding).
type docScope struct {
	root       int32
	begin, end int64
	st         *nodeState
}

// resolveScope resolves a document root to its scope.
func (db *DB) resolveScope(root int) (*docScope, error) {
	if !db.HasNode(root) || db.Parent(root) != 0 {
		return nil, fmt.Errorf("%w: node %d", ErrNotDocumentRoot, root)
	}
	st := db.encoding()
	if st == nil {
		return nil, ErrScopeNeedsIntervals
	}
	iv, ok := st.tab.get(root)
	if !ok {
		return nil, fmt.Errorf("%w: it does not cover document root %d", ErrScopeNeedsIntervals, root)
	}
	return &docScope{root: int32(root), begin: iv.Begin, end: iv.End, st: st}, nil
}

// count returns the number of a stored relation's rows in the scope — the
// length of the view the run would cut of it — by a pass over its rows,
// building nothing; 0 when the encoding misses one of its nodes, whose view
// the run could not cut either.
func (sc *docScope) count(rel *Relation) int {
	n := 0
	for i, w := range rel.rows {
		if rel.isDead(i) {
			continue
		}
		iv, ok := sc.st.tab.get(int(w.t))
		if !ok {
			return 0
		}
		if iv.Begin >= sc.begin && iv.Begin < sc.end {
			n++
		}
	}
	return n
}

// stored returns the stored relation a plan reads: the relation itself, or
// its view under the run's scope.
func (e *Exec) stored(name string) (*Relation, error) {
	r := e.DB.Rel(name)
	if e.scope == nil {
		return r, nil
	}
	return e.view(r)
}

// view returns the run's scoped view of a stored relation, cut on first use.
func (e *Exec) view(base *Relation) (*Relation, error) {
	for _, v := range e.views {
		if v.base == base {
			return v, nil
		}
	}
	rows, _, _, err := e.sortedRun(e.scope.st, base)
	if err != nil {
		return nil, fmt.Errorf("%w: relation %s holds a node it does not cover", ErrScopeNeedsIntervals, base.Name)
	}
	var v *Relation
	if e.arena != nil {
		v = e.arena.alloc(base.Name, true)
	} else {
		v = newRelation(base.Name, e.DB.Syms)
	}
	v.base = base
	v.rows = rows
	e.views = append(e.views, v)
	return v, nil
}

// sortedRun returns a stored relation's rows in begin order with their
// intervals: its begin-sorted index, cut to the run's scope.
func (e *Exec) sortedRun(st *nodeState, base *Relation) (rows []row, begins, ends []int64, err error) {
	idx, err := st.indexFor(base)
	if err != nil {
		return nil, nil, nil, err
	}
	lo, hi := 0, len(idx.rows)
	if e.scope != nil { // the nodes whose begin lies in [begin, end)
		lo, hi = idx.rangeOf(0, e.scope.begin-1, e.scope.end)
	}
	return idx.rows[lo:hi:hi], idx.begins[lo:hi:hi], idx.ends[lo:hi:hi], nil
}

// scopedFIndex builds a view's F index: the base's, with key 0 narrowed to
// the scope's root row. Only a document root has F = 0, a root's interval
// holds no other root, and the root opens its interval — so the row, if this
// relation holds it, is the first of the run.
//
// A pooled view keeps the copy in its fScratch, which only ever holds such a
// copy (ExecState keeps views apart from temporaries) and which reset clears.
func (r *Relation) scopedFIndex() *colIndex {
	idx := r.fScratch
	if idx == nil {
		idx = new(colIndex)
		if r.pooled {
			r.fScratch = idx
		}
	}
	*idx = *r.base.fIndex()
	idx.scoped = true
	if len(r.rows) > 0 && r.rows[0].f == 0 {
		idx.rootSnap, idx.rootOver = r.base.tIndex().lookup(r.rows[0].t)
	}
	return idx
}

// scopedIdent materializes R_id over the scope: (v, v, v.val) for every node
// of the document — each is the T of exactly one stored row — plus the
// virtual root, in node-ID order like the unscoped R_id (the relations are
// visited in map order).
func (e *Exec) scopedIdent() (*Relation, error) {
	out := e.newRel("Rid")
	out.addRow(row{})
	for _, base := range e.DB.Rels {
		v, err := e.view(base)
		if err != nil {
			return nil, err
		}
		for _, w := range v.rows {
			out.addRow(row{f: w.t, t: w.t, v: w.v})
		}
	}
	slices.SortFunc(out.rows, func(a, b row) int { return cmp.Compare(a.t, b.t) })
	return out, nil
}
