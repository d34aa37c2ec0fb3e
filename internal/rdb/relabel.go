package rdb

import "slices"

// Update maintenance of the interval encoding. A structural update derives
// the next epoch's node table from the previous one instead of rebuilding it:
//
//   - A delete removes its nodes' rows, labels included, and moves nothing; the
//     labels around a gap are still in document order.
//   - An insert labels the new subtree out of the free range before its
//     parent's end. Siblings are ordered by node ID and IDs are allocated
//     monotonically, so a store only ever adds a subtree as its parent's last
//     child: [end of the parent's last child, parent's end) is the one place
//     room is ever needed, which is why slack is kept before a node's end and
//     nowhere else.
//   - Slack appears lazily. A bulk load is dense, so the first insert finds no
//     room; neither does an insert under a parent whose free range has been
//     used up. Then the smallest enclosing subtree whose own interval can
//     absorb it is spread out again with its own labels fixed — nothing outside
//     it moves — and the whole database only when no ancestor has the room.
//
// The labels a store holds are therefore order-isomorphic to the dense ones,
// not equal to them; Save writes ranks, so the image does not show it.

const (
	// relabelGap is how many free labels a relabel leaves before the end of
	// every node it labels, label space permitting.
	relabelGap = 1 << 32
	// slackShare bounds what one insert may take: the subtree that becomes a
	// parent's (c+1)-th child gets at most 1/(slackShare+c) of the parent's
	// free range, so a parent that already has many children — a collection
	// being appended to — hands its slack out in ever smaller pieces instead
	// of in a geometric series that is gone after a few hundred appends.
	slackShare = 16
	// labelSpace is what a whole-database relabel divides among the documents.
	labelSpace = 1 << 62
)

// childIndex lists children in document order — ascending node ID — out of
// the stored relations' F indexes, so walking a subtree costs the subtree.
type childIndex struct {
	rels []*Relation
	idx  []*colIndex
}

func (db *DB) children() *childIndex {
	ci := &childIndex{}
	for _, rel := range db.Rels {
		ci.rels = append(ci.rels, rel)
		ci.idx = append(ci.idx, rel.fIndex())
	}
	return ci
}

// each visits the children of f, relation by relation.
func (ci *childIndex) each(f int32, visit func(t int32)) {
	for k, rel := range ci.rels {
		snap, over := ci.idx[k].lookup(f)
		for _, part := range [2][]int32{snap, over} {
			for _, pos := range part {
				if !rel.isDead(int(pos)) {
					visit(rel.rows[pos].t)
				}
			}
		}
	}
}

// appendOf appends the children of f to buf, in document order.
func (ci *childIndex) appendOf(buf []int32, f int32) []int32 {
	start := len(buf)
	ci.each(f, func(t int32) { buf = append(buf, t) })
	if kids := buf[start:]; !slices.IsSorted(kids) {
		slices.Sort(kids)
	}
	return buf
}

// treeWalk is a subtree in preorder: the subtree of ids[i] is
// ids[i : i+size[i]] and depth[i] is its depth below ids[0].
type treeWalk struct {
	ids, size, depth []int32
}

// walk lists the subtree of root; root 0, the virtual root, lists the
// database.
func (ci *childIndex) walk(root int32) treeWalk { return walkTree(root, ci.appendOf) }

// walkTree lists the subtree of root, taking each node's children, in document
// order, from appendKids.
func walkTree(root int32, appendKids func(buf []int32, f int32) []int32) treeWalk {
	var w treeWalk
	var kids []int32 // the unvisited children of every open node, innermost last
	var visit func(id, depth int32)
	visit = func(id, depth int32) {
		at := len(w.ids)
		w.ids, w.size, w.depth = append(w.ids, id), append(w.size, 0), append(w.depth, depth)
		lo := len(kids)
		kids = appendKids(kids, id)
		for i, hi := lo, len(kids); i < hi; i++ {
			visit(kids[i], depth+1)
		}
		kids = kids[:lo]
		w.size[at] = int32(len(w.ids) - at)
	}
	visit(root, 0)
	return w
}

// spread labels w.ids[from:] with gap free labels before every end, as if
// w.ids[0] began at base. Node i then begins after the i nodes that opened
// before it and the gaps of those among them that have closed — all but its
// depth[i] ancestors — and spans its subtree, gaps included. gap 0 is the
// dense encoding.
func (b *IntervalBuilder) spread(w treeWalk, from int, base, gap int64, level int32) {
	for i := from; i < len(w.ids); i++ {
		d := w.depth[i] - w.depth[0]
		begin := base + int64(i) + gap*int64(int32(i)-d)
		b.Set(int(w.ids[i]), NodeInterval{Begin: begin, End: begin + int64(w.size[i])*(1+gap), Level: level + d})
	}
}

// DeriveInsert labels an insert: db, derived from a database with an
// encoding, has stored the subtree rooted at base as the last child of parent,
// and gets labels for it beside the ones it shares with that database. It
// returns how many labels a relabel had to write to make room, 0 when the
// subtree fitted the parent's free range; after a relabel db's encoding is its
// own, and DeriveIndexes carries nothing into it. When db has no encoding, or
// it does not cover the place of the insert, db has none.
func (db *DB) DeriveInsert(parent, base int) int {
	st := db.encoding()
	if st == nil {
		return 0
	}
	b := &IntervalBuilder{db: db, tab: st.tab}
	if !b.insert(db.children(), int32(parent), int32(base)) {
		db.InvalidateIntervals()
		return 0
	}
	if b.relabelled > 0 {
		b.Adopt()
	}
	return b.relabelled
}

// tail counts the children of f with IDs below limit, naming the greatest —
// the last in document order — and those from limit up.
func (ci *childIndex) tail(f, limit int32) (below int, last int32, rest int) {
	ci.each(f, func(t int32) {
		if t >= limit {
			rest++
			return
		}
		below++
		last = max(last, t)
	})
	return below, last, rest
}

// insert labels the subtree of base, reporting false when the encoding does
// not cover its place or base is not parent's one child from base up.
func (b *IntervalBuilder) insert(ci *childIndex, parent, base int32) bool {
	pv, ok := b.tab.get(int(parent))
	older, last, rest := ci.tail(parent, base)
	if !ok || rest != 1 || b.tab.parentOf(int(base)) != parent {
		return false
	}
	lo := pv.Begin + 1
	if older > 0 {
		lv, ok := b.tab.get(int(last))
		if !ok {
			return false
		}
		lo = lv.End
	}
	sub := ci.walk(base)
	n := int64(len(sub.ids))
	if free := pv.End - lo; free >= n {
		width := max(free/int64(slackShare+older), n)
		b.spread(sub, 0, lo, min(width/n-1, relabelGap), pv.Level+1)
		return true
	}
	b.relabel(ci, parent)
	return true
}

// relabel makes room under parent, whose stored subtree — the new nodes
// included — no longer fits its labels. It spreads out the subtree of the
// nearest ancestor-or-self a whose interval can take it: a's own labels stay,
// every node below it gets the same gap, at most half of a's free labels, and
// the rest stays before a's end. To be worth its s label writes the relabel
// must leave parent room for s more nodes, so a qualifies when that many
// labels end up free before parent's end: the rest when a is parent, the gap
// otherwise. With no such ancestor the whole database is relabelled, and the
// label space above the documents goes to the document roots' ends, where a
// collection grows.
func (b *IntervalBuilder) relabel(ci *childIndex, parent int32) {
	inner := int64(0) // size of the last subtree walked, which every later one contains
	for a := parent; a != 0; a = b.tab.parentOf(int(a)) {
		av, ok := b.tab.get(int(a))
		if !ok {
			break
		}
		if av.End-av.Begin < 2*(inner+1) {
			continue // too narrow whatever else it holds: not worth the walk
		}
		w := ci.walk(a)
		s := int64(len(w.ids))
		inner = s
		free := av.End - av.Begin - s
		if free < 0 {
			continue
		}
		gap := min(free/(2*(s-1)), relabelGap)
		room := gap
		if a == parent {
			room = free - gap*(s-1)
		}
		if room < s {
			continue
		}
		b.spread(w, 1, av.Begin, gap, av.Level)
		b.relabelled = int(s - 1)
		return
	}
	w := ci.walk(0)
	unit := labelSpace / int64(len(w.ids)-1)
	pos := int64(0)
	for i := 1; i < len(w.ids); i += int(w.size[i]) {
		end := i + int(w.size[i])
		doc := treeWalk{ids: w.ids[i:end], size: w.size[i:end], depth: w.depth[i:end]}
		s := int64(len(doc.ids))
		b.Set(int(doc.ids[0]), NodeInterval{Begin: pos, End: pos + unit*s})
		if s > 1 {
			b.spread(doc, 1, pos, min((unit*s-s)/(2*(s-1)), relabelGap), 0)
		}
		pos += unit * s
	}
	b.relabelled = len(w.ids) - 1
}
