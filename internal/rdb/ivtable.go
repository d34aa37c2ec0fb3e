package rdb

import (
	"maps"
	"slices"
)

// The node table behind the interval encoding: (begin, end, level) per node
// ID, held as columns in fixed-size chunks under a small top-level map keyed
// by id >> ivChunkBits, so a store whose IDs start at a large -node-id-base
// pays for the chunks it occupies and nothing else. A published table is
// immutable. The next epoch's table is derived from it by an IntervalBuilder
// that shares every chunk it does not write and copies a chunk the first time
// it does — an update costs the chunks it touches, not the table.

const (
	ivChunkBits = 10
	ivChunkLen  = 1 << ivChunkBits
)

// ivChunk holds the labels of ivChunkLen consecutive node IDs.
type ivChunk struct {
	begin, end [ivChunkLen]int64
	depth      [ivChunkLen]int32 // level+1, so the zero chunk is empty: 0 marks a free slot
	used       int32             // occupied slots; a chunk that reaches 0 is dropped
}

type ivTable struct {
	chunks map[int32]*ivChunk
	n      int // occupied slots
}

func (t *ivTable) get(id int) (NodeInterval, bool) {
	c := t.chunks[int32(id>>ivChunkBits)]
	if c == nil {
		return NodeInterval{}, false
	}
	i := id & (ivChunkLen - 1)
	d := c.depth[i]
	if d == 0 {
		return NodeInterval{}, false
	}
	return NodeInterval{Begin: c.begin[i], End: c.end[i], Level: d - 1}, true
}

// each visits the encoded nodes in ascending ID order.
func (t *ivTable) each(fn func(id int, iv NodeInterval)) {
	keys := make([]int32, 0, len(t.chunks))
	for k := range t.chunks {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		c := t.chunks[k]
		for i, d := range c.depth {
			if d != 0 {
				fn(int(k)<<ivChunkBits|i, NodeInterval{Begin: c.begin[i], End: c.end[i], Level: d - 1})
			}
		}
	}
}

// IntervalBuilder writes an interval table: a fresh one for a bulk load
// (DB.NewIntervalBuilder; the shredders fill it node by node instead of
// collecting a map first), or the next epoch's, derived copy-on-write from the
// previous epoch's. It has one writer and is dead once adopted.
type IntervalBuilder struct {
	db  *DB
	tab *ivTable
	// prev is the encoding a derived table started from; relabelled counts
	// the labels a relabel moved since (see relabel.go).
	prev       *ivState
	relabelled int
	// owned names the chunks this builder allocated or copied and may
	// therefore write in place — nil while a derived table is still prev's
	// own, top-level map included; last caches the most recent one, which is
	// where the next write of a bulk load nearly always lands.
	owned   map[int32]bool
	lastKey int32
	last    *ivChunk
}

// NewIntervalBuilder starts an empty encoding for db.
func (db *DB) NewIntervalBuilder() *IntervalBuilder {
	return &IntervalBuilder{db: db, tab: &ivTable{chunks: map[int32]*ivChunk{}}, owned: map[int32]bool{}}
}

// deriveIntervals starts db's encoding (and DTD fingerprint) as prev's, to be
// patched copy-on-write. It returns nil, and leaves db without an encoding,
// when prev has none.
func (db *DB) deriveIntervals(prev *DB) *IntervalBuilder {
	db.DTDFP = prev.DTDFP
	st := prev.ivs.Load()
	if st == nil {
		db.ivs.Store(nil)
		return nil
	}
	return &IntervalBuilder{db: db, tab: st.tab, prev: st}
}

// chunk returns the writable chunk holding id.
func (b *IntervalBuilder) chunk(id int) *ivChunk {
	key := int32(id >> ivChunkBits)
	if b.last != nil && key == b.lastKey {
		return b.last
	}
	if b.owned == nil {
		b.tab = &ivTable{chunks: maps.Clone(b.tab.chunks), n: b.tab.n}
		b.owned = map[int32]bool{}
	}
	c := b.tab.chunks[key]
	if !b.owned[key] {
		if c == nil {
			c = new(ivChunk)
		} else {
			cp := *c
			c = &cp
		}
		b.tab.chunks[key] = c
		b.owned[key] = true
	}
	b.lastKey, b.last = key, c
	return c
}

// Set records the interval of one node; iv.Level must not be negative.
func (b *IntervalBuilder) Set(id int, iv NodeInterval) {
	c, i := b.chunk(id), id&(ivChunkLen-1)
	if c.depth[i] == 0 {
		c.used++
		b.tab.n++
	}
	c.begin[i], c.end[i], c.depth[i] = iv.Begin, iv.End, iv.Level+1
}

// clear removes a node's entry. Nothing else moves: the labels around a gap
// are still in document order.
func (b *IntervalBuilder) clear(id int) {
	if _, ok := b.tab.get(id); !ok {
		return
	}
	c, i := b.chunk(id), id&(ivChunkLen-1)
	c.begin[i], c.end[i], c.depth[i] = 0, 0, 0
	b.tab.n--
	if c.used--; c.used == 0 {
		// IDs are never reused, so a store that inserts and deletes for long
		// enough would otherwise keep an empty chunk per 1024 IDs it ever
		// assigned.
		delete(b.tab.chunks, b.lastKey)
		delete(b.owned, b.lastKey)
		b.last = nil
	}
}

// Adopt installs the built encoding on the database, replacing any previous
// one. A derived encoding that moved no label keeps the descendant indexes of
// the relations the database shares with the one it was derived from.
func (b *IntervalBuilder) Adopt() {
	st := &ivState{tab: b.tab, byRel: map[*Relation]*descIndex{}}
	if b.prev != nil && b.relabelled == 0 {
		st.inherit(b.prev, b.db)
	}
	b.db.ivs.Store(st)
}
