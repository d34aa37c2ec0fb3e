package rdb

import "math/bits"

// Reclaiming symbols. The dictionary a store's epochs share only grows, while
// the values its rows hold come and go: a store fed fresh values — names,
// tags, timestamps — would grow by every value it ever saw. So symbols are
// reclaimed as rows are (deadShare): once the dead symbols, which no live row
// or node holds any more, are a quarter of the dictionary, the writer moves
// the version it is building onto a compact dictionary of the live ones.
// Element types keep their numbers, so the node table's type column and the
// type map every epoch shares never change. The move copies what holds a
// moved value — the row arrays of the stored relations with one, the
// node-table chunks with one — and nothing else: positions and tombstones
// stay, so the F and T indexes and their overflows carry over as they are, and
// DeriveIndexes rewrites the values of the descendant indexes it carries, by
// the same rule as every update's. Older epochs keep their dictionary
// and arrays by pointer, and read on undisturbed. The epoch that compacted
// carries the old-to-new table, and a standing view one epoch behind rewrites
// its materializations by it and stays incremental (ViewState.follow).

// symRemap is the move the epoch that compacted its dictionary made: from
// the dictionary before, and each symbol's number in the new one, -1 for a
// dead one.
type symRemap struct {
	from *Interner
	to   []int32
}

// symMarks is a set of symbols, a bit each.
type symMarks []uint64

func (m symMarks) add(s int32)      { m[s>>6] |= 1 << (uint(s) & 63) }
func (m symMarks) has(s int32) bool { return m[s>>6]&(1<<(uint(s)&63)) != 0 }

// ReclaimSymbols marks the symbols db holds — the values of its stored
// relations' live rows, its node table's values and element types — and,
// when at least a quarter of the dictionary is dead or force is set, moves db
// onto a compact dictionary of the live ones, where every element type keeps
// its number. It returns the live symbols and whether it compacted. db must
// be a version no reader holds yet (Derive's), whose relations are final.
func (db *DB) ReclaimSymbols(force bool) (live int, compacted bool) {
	n := db.Syms.Len()
	marks, types := make(symMarks, (n+63)>>6), make(symMarks, (n+63)>>6)
	marks.add(0)
	for _, r := range db.Rels {
		dead := r.dead
		for i, w := range r.rows {
			if !dead.has(i) {
				marks.add(w.v)
			}
		}
	}
	tab := db.nodes.Load().tab
	tab.eachNode(func(_ int, _, val, typ int32) {
		marks.add(val)
		marks.add(typ)
		types.add(typ)
	})
	for _, w := range marks {
		live += bits.OnesCount64(w)
	}
	if !force && (n-live)*deadShare < n {
		return live, false
	}
	syms, to := db.Syms.compacted(marks, types, n, live)
	db.remapSymbols(syms, to)
	return live, true
}

// remapSymbols moves db onto syms, to taking each symbol of db.Syms to its
// number there: every stored relation gets a version on syms, and the node
// table's values are rewritten. The node-table chunks this copies are the
// compaction's, not counted against the update (ChunksCopied).
func (db *DB) remapSymbols(syms *Interner, to []int32) {
	for name, r := range db.Rels {
		db.Rels[name] = r.remapped(syms, to)
	}
	tab := db.nodes.Load().tab
	copied, dirCopied := tab.copied, tab.dirCopied
	tab.remapSyms(to)
	tab.copied, tab.dirCopied = copied, dirCopied
	db.remap = &symRemap{from: db.Syms, to: to}
	db.Syms = syms
}

// remapped returns the next version of a stored relation on syms. Its rows
// are r's, or — when a live row holds a symbol to moves — a copy of them with
// every value rewritten (a dead row's to the empty string, which no reader
// sees); positions and tombstones are r's either way, so the indexes Clone
// carries over still hold, and so does the record of r's writes, which the
// new version takes over when r is the update's own.
func (r *Relation) remapped(syms *Interner, to []int32) *Relation {
	c := r.Clone()
	c.syms = syms
	if r.src != nil {
		c.src, c.born, c.killed = r.src, r.born, r.killed
	}
	dead := r.dead
	for i, w := range r.rows {
		if dead.has(i) || to[w.v] == w.v {
			continue
		}
		rows := make([]row, len(r.rows), len(r.rows)+len(r.rows)/4+16)
		for j, w := range r.rows {
			if dead.has(j) {
				w.v = 0
			} else {
				w.v = to[w.v]
			}
			rows[j] = w
		}
		c.rows = rows
		c.tip.Store(nil)
		break
	}
	return c
}

// resym moves a view's materialization onto syms, rewriting its values by to
// in place — in a row array of its own, first copied if it is a stored
// relation's, whose other versions share it (Clone). A symbol to drops, or
// one past it, becomes the empty string: only a row the update that compacted
// is taking out holds one.
func (r *Relation) resym(syms *Interner, to []int32) {
	r.syms = syms
	if r.tip.Load() != nil {
		r.rows = append([]row(nil), r.rows...)
		r.tip.Store(nil)
	}
	for i, w := range r.rows {
		if w.v != 0 {
			r.rows[i].v = 0
			if int(w.v) < len(to) {
				r.rows[i].v = max(to[w.v], 0)
			}
		}
	}
}

// remapSyms rewrites the value column by to, copying the chunks that hold a
// value it moves and no other.
func (t *nodeTable) remapSyms(to []int32) {
	var bases []int // collected first: writable replaces pages under eachChunk
	t.eachChunk(func(base int, c *nodeChunk) {
		for i, stored := range c.stored {
			if stored && to[c.val[i]] != c.val[i] {
				bases = append(bases, base)
				return
			}
		}
	})
	for _, base := range bases {
		c := t.writable(base)
		for i, stored := range c.stored {
			if stored {
				c.val[i] = to[c.val[i]]
			}
		}
	}
}
