package rdb

import "math/bits"

// Reclaiming symbols. The dictionary a store's epochs share only grows, while
// the values its rows hold come and go: a store fed fresh values — names,
// tags, timestamps — would grow by every value it ever saw. So symbols are
// reclaimed as rows are (deadShare): once the dead symbols, which no live row
// or node holds any more, are a quarter of the strings held, the writer moves
// the version it is building onto a copy of the dictionary without them. No
// symbol moves: every live one keeps its number, a dead one's number is free
// for the next string interned, and the copy ends at the highest live
// symbol. So nothing that holds a symbol is rewritten — not a row, a
// node-table chunk, a descendant index or a standing view's materialization.
// Each stored relation gets a version on the new dictionary that shares its
// rows and hands on the record of its update's writes, so the indexes carry
// over as they are (DeriveIndexes), and a standing view one epoch behind only
// repoints its materializations (ViewState.follow). Older epochs keep their
// dictionary by pointer and read on undisturbed. A dead symbol is still held
// by the rows the compacting update takes out; those are taken out by (F, T),
// and no rule reads their values.

// symMarks is a set of symbols, a bit each.
type symMarks []uint64

func (m symMarks) add(s int32)      { m[s>>6] |= 1 << (uint(s) & 63) }
func (m symMarks) has(s int32) bool { return m[s>>6]&(1<<(uint(s)&63)) != 0 }

// ReclaimSymbols marks the symbols db holds — the values of its stored
// relations' live rows, its node table's values and element types — and,
// when at least a quarter of the strings held are dead or force is set,
// moves db onto a copy of its dictionary that holds only the live ones, each
// at its number. It returns the live symbols and whether it compacted. db
// must be a version no reader holds yet (Derive's), whose relations are
// final.
func (db *DB) ReclaimSymbols(force bool) (live int, compacted bool) {
	n, held := db.Syms.Len(), db.Syms.Held()
	marks := make(symMarks, (n+63)>>6)
	marks.add(0)
	for _, r := range db.Rels {
		dead := r.dead
		for i, w := range r.rows {
			if !dead.has(i) {
				marks.add(w.v)
			}
		}
	}
	db.nodes.Load().tab.eachNode(func(_ int, _, val, typ int32) {
		marks.add(val)
		marks.add(typ)
	})
	for _, w := range marks {
		live += bits.OnesCount64(w)
	}
	if !force && (held-live)*deadShare < held {
		return live, false
	}
	syms := db.Syms.compacted(marks, n)
	for name, r := range db.Rels {
		c := r.Clone()
		c.syms = syms
		if r.src != nil { // the update's own version: c takes over its record
			c.src, c.born, c.killed = r.src, r.born, r.killed
		}
		db.Rels[name] = c
	}
	db.Syms = syms
	return live, true
}
