package rdb

import (
	"maps"
	"math"
	"slices"
)

// The node table: one row per stored node ID, in six columns — the catalog's
// (parent, value symbol, element type symbol), which define the domain of R_id
// (§5.1) and rebuild answers (§5.2), and the interval encoding's (begin, end,
// level). The columns sit in fixed-size chunks under a small top-level map
// keyed by id >> nodeChunkBits, so a store whose IDs start at a large
// -node-id-base pays for the chunks it occupies and nothing else. A published
// table is immutable. The next epoch's table is derived from it: it shares
// every chunk it does not write and copies a chunk the first time it does — an
// update costs the chunks it touches, not the table. A chunk carries the mark
// of the table that allocated it, and only that table writes it in place; that
// is the whole sharing mechanism, for the catalog, the element types and the
// interval labels alike.

const (
	nodeChunkBits = 10
	nodeChunkLen  = 1 << nodeChunkBits
)

// nodeChunk holds the rows of nodeChunkLen consecutive node IDs.
type nodeChunk struct {
	begin, end [nodeChunkLen]int64
	depth      [nodeChunkLen]int32 // level+1, so the zero chunk is empty: 0 marks a node without a label
	parent     [nodeChunkLen]int32
	val        [nodeChunkLen]int32 // the text value's symbol in DB.Syms
	typ        [nodeChunkLen]int32 // the element type's symbol in DB.Syms; 0 for a node without one
	stored     [nodeChunkLen]bool  // the node is in the catalog
	// Slots in the catalog and slots with a label; a chunk left with neither is
	// dropped.
	nodes, labels int32
	owner         *tableMark
}

// tableMark identifies a table to its chunks. It is an object of its own, not
// the table, so that a chunk a later epoch still shares does not keep the
// table that allocated it — and every chunk of that epoch — alive.
type tableMark struct{ _ byte }

type nodeTable struct {
	chunks map[int32]*nodeChunk
	nodes  int // catalog entries
	labels int // labelled nodes

	// The write side; a table has one writer, and none once its database is
	// published or derived from. sharedTop says chunks is still the map of the
	// table this one was derived from; last caches the most recent writable
	// chunk, which is where the next write of a bulk load nearly always lands;
	// copied counts the chunks copied out of the parent table.
	mark      *tableMark
	sharedTop bool
	lastKey   int32
	last      *nodeChunk
	copied    int
}

func newNodeTable() *nodeTable {
	return &nodeTable{chunks: map[int32]*nodeChunk{}, mark: new(tableMark)}
}

// derive returns a table holding t's rows, to be written copy-on-write.
func (t *nodeTable) derive() *nodeTable {
	return &nodeTable{chunks: t.chunks, nodes: t.nodes, labels: t.labels, mark: new(tableMark), sharedTop: true}
}

// slot returns the chunk and offset of id; the chunk is nil when the table has
// no row near it, and for an id no node can have (outside 0…2³¹−1), which
// would otherwise alias a stored one.
func (t *nodeTable) slot(id int) (*nodeChunk, int) {
	if uint(id) > math.MaxInt32 {
		return nil, 0
	}
	return t.chunks[int32(id>>nodeChunkBits)], id & (nodeChunkLen - 1)
}

func (t *nodeTable) has(id int) bool {
	c, i := t.slot(id)
	return c != nil && c.stored[i]
}

// parentOf and valSym return 0 for a node the catalog does not hold.
func (t *nodeTable) parentOf(id int) int32 {
	if c, i := t.slot(id); c != nil {
		return c.parent[i]
	}
	return 0
}

func (t *nodeTable) valSym(id int) int32 {
	if c, i := t.slot(id); c != nil {
		return c.val[i]
	}
	return 0
}

// typSym returns the element type's symbol of id, 0 for a node without one.
func (t *nodeTable) typSym(id int) int32 {
	if c, i := t.slot(id); c != nil {
		return c.typ[i]
	}
	return 0
}

// get returns the label of id.
func (t *nodeTable) get(id int) (NodeInterval, bool) {
	c, i := t.slot(id)
	if c == nil || c.depth[i] == 0 {
		return NodeInterval{}, false
	}
	return NodeInterval{Begin: c.begin[i], End: c.end[i], Level: c.depth[i] - 1}, true
}

// eachChunk visits the chunks in ascending ID order; base is the ID of a
// chunk's first slot.
func (t *nodeTable) eachChunk(fn func(base int, c *nodeChunk)) {
	keys := make([]int32, 0, len(t.chunks))
	for k := range t.chunks {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		fn(int(k)<<nodeChunkBits, t.chunks[k])
	}
}

// eachNode visits the catalog's nodes, eachLabel the labelled ones, in
// ascending ID order.
func (t *nodeTable) eachNode(fn func(id int, parent, val, typ int32)) {
	t.eachChunk(func(base int, c *nodeChunk) {
		for i, stored := range c.stored[:] {
			if stored {
				fn(base|i, c.parent[i], c.val[i], c.typ[i])
			}
		}
	})
}

func (t *nodeTable) eachLabel(fn func(id int, iv NodeInterval)) {
	t.eachChunk(func(base int, c *nodeChunk) {
		for i, d := range c.depth[:] {
			if d != 0 {
				fn(base|i, NodeInterval{Begin: c.begin[i], End: c.end[i], Level: d - 1})
			}
		}
	})
}

// writable returns the chunk holding id for writing: the table's own, or its
// copy of the parent table's, made now.
func (t *nodeTable) writable(id int) *nodeChunk {
	key := int32(id >> nodeChunkBits)
	if t.last != nil && key == t.lastKey {
		return t.last
	}
	c := t.chunks[key]
	if c == nil || c.owner != t.mark {
		if t.sharedTop {
			t.chunks, t.sharedTop = maps.Clone(t.chunks), false
		}
		if c == nil {
			c = &nodeChunk{owner: t.mark}
		} else {
			cp := *c
			cp.owner = t.mark
			c = &cp
			t.copied++
		}
		t.chunks[key] = c
	}
	t.lastKey, t.last = key, c
	return c
}

// put records id in the catalog: its parent, value and element type.
func (t *nodeTable) put(id int, parent, val, typ int32) {
	c, i := t.writable(id), id&(nodeChunkLen-1)
	if !c.stored[i] {
		c.stored[i] = true
		c.nodes++
		t.nodes++
	}
	c.parent[i], c.val[i], c.typ[i] = parent, val, typ
}

// setLabel records the label of id; iv.Level must not be negative.
func (t *nodeTable) setLabel(id int, iv NodeInterval) {
	c, i := t.writable(id), id&(nodeChunkLen-1)
	if c.depth[i] == 0 {
		c.labels++
		t.labels++
	}
	c.begin[i], c.end[i], c.depth[i] = iv.Begin, iv.End, iv.Level+1
}

// remove deletes the row of id, element type and label included, so an ID
// stored again starts without a type. Nothing else moves: the labels
// around a gap are still in document order.
func (t *nodeTable) remove(id int) {
	if c, i := t.slot(id); c == nil || !c.stored[i] && c.depth[i] == 0 {
		return
	}
	c, i := t.writable(id), id&(nodeChunkLen-1)
	if c.stored[i] {
		c.stored[i] = false
		c.nodes--
		t.nodes--
	}
	if c.depth[i] != 0 {
		c.labels--
		t.labels--
	}
	c.begin[i], c.end[i], c.depth[i], c.parent[i], c.val[i], c.typ[i] = 0, 0, 0, 0, 0, 0
	if c.nodes == 0 && c.labels == 0 {
		// IDs are never reused, so a store that inserts and deletes for long
		// enough would otherwise keep an empty chunk per 1024 IDs it ever
		// assigned.
		delete(t.chunks, t.lastKey)
		t.last = nil
	}
}

// clearLabels empties the interval label columns, keeping the catalog and the
// element types.
func (t *nodeTable) clearLabels() {
	if t.labels == 0 {
		return
	}
	if t.sharedTop {
		t.chunks, t.sharedTop = maps.Clone(t.chunks), false
	}
	for key, c := range t.chunks {
		switch {
		case c.labels == 0:
		case c.nodes == 0:
			delete(t.chunks, key)
		default:
			c = t.writable(int(key) << nodeChunkBits)
			c.begin, c.end, c.depth, c.labels = [nodeChunkLen]int64{}, [nodeChunkLen]int64{}, [nodeChunkLen]int32{}, 0
		}
	}
	t.labels, t.last = 0, nil
}

// maxID returns the largest node ID in the catalog, 0 when it is empty.
func (t *nodeTable) maxID() int {
	best, found := int32(0), false
	for k, c := range t.chunks {
		if c.nodes > 0 && (!found || k > best) {
			best, found = k, true
		}
	}
	if !found {
		return 0
	}
	c := t.chunks[best]
	for i := nodeChunkLen - 1; ; i-- {
		if c.stored[i] {
			return int(best)<<nodeChunkBits | i
		}
	}
}

// HasNode reports whether the catalog holds the node.
func (db *DB) HasNode(id int) bool { return db.nodes.Load().tab.has(id) }

// NumNodes returns the number of stored nodes.
func (db *DB) NumNodes() int { return db.nodes.Load().tab.nodes }

// MaxNodeID returns the largest stored node ID, 0 for an empty database.
func (db *DB) MaxNodeID() int { return db.nodes.Load().tab.maxID() }

// Parent returns the parent of a stored node: 0 for a root element, and for a
// node the catalog does not hold.
func (db *DB) Parent(id int) int { return int(db.nodes.Load().tab.parentOf(id)) }

// ValSym returns the symbol of a stored node's text value in db.Syms; 0, the
// empty string's, for a node the catalog does not hold.
func (db *DB) ValSym(id int) int32 { return db.nodes.Load().tab.valSym(id) }

// Val returns a stored node's text value.
func (db *DB) Val(id int) string {
	if sym := db.ValSym(id); sym != 0 {
		return db.Syms.Str(sym)
	}
	return ""
}

// EachNode visits the stored nodes in ascending ID order.
func (db *DB) EachNode(fn func(id int)) {
	db.nodes.Load().tab.eachNode(func(id int, _, _, _ int32) { fn(id) })
}

// ChunksCopied reports how many node-table chunks the database copied from
// the one it was derived from — what its catalog, type and label writes cost.
func (db *DB) ChunksCopied() int { return db.nodes.Load().tab.copied }
