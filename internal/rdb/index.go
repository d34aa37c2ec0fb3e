package rdb

import "slices"

// colIndex maps a column value (F or T) to the positions of the tuples
// holding it. It replaces the seed's lazy map[int][]int32 indexes, which were
// discarded on every insert and rebuilt from scratch on the next probe.
//
// The index is built once over a snapshot of the relation, in CSR form: bucket
// b holds pos[offs[b]:offs[b+1]], positions ascending. When the key range is
// dense — the usual case, node IDs are dense — the bucket of a key is the key
// itself; when it is sparse, the distinct keys are listed in ascending order
// and a bucket is found by binary search, inside the slot of a directory that
// cuts the key range into as many equal parts as there are keys, so a probe
// compares a key or two. Tuples appended after the build —
// the delta rows a semi-naive fixpoint adds while probing, the rows a store
// update inserts — extend the index incrementally through a small overflow
// table instead of invalidating it; a clone or a view's materialization folds
// the overflow into a new snapshot once it outgrows a fixed share of it
// (folded), and a compaction carries the index over to the survivors (compact).
type colIndex struct {
	sparse bool
	// Sparse form only: the distinct keys, ascending, and the directory over
	// them — dir[j] is where the keys from keys[0] + j<<shift up begin.
	keys  []int32
	dir   []int32
	shift uint8
	offs  []int32
	pos   []int32
	// built is the number of leading tuples the snapshot covers; positions
	// appended afterwards live in extra, whose keys all lie in [xlo, xhi].
	built    int
	extra    map[int32][]int32
	xlo, xhi int32
	distinct int // number of distinct keys at build time

	// sortBuf is the sparse build's scratch, kept only by a pooled relation's
	// index (see buildColIndexInto).
	sortBuf []uint64

	// scoped marks the F index of a document-scoped view (scope.go): a copy
	// of the base relation's index in which key 0 — the virtual root, the one
	// key that is in every document's scope — finds only the scope's own
	// root row (rootSnap/rootOver, positions in the base's rows).
	scoped             bool
	rootSnap, rootOver []int32
}

const (
	// denseLimit: build the dense form when maxKey is within this factor of
	// the tuple count; beyond it the offsets array would dominate memory.
	denseLimit = 8
	// foldShare and foldSlack bound the overflow a clone carries along, and a
	// view's materialization keeps: past built/foldShare + foldSlack entries it
	// is folded into the snapshot, so copying or probing it stays a fixed share
	// of the rows' cost and a fold costs O(foldShare) per appended row.
	foldShare = 16
	foldSlack = 64
)

// denseKeys reports whether n tuples with keys in [lo, hi] get the dense form.
func denseKeys(lo, hi int32, n int) bool {
	return lo >= 0 && int(hi)+2 <= denseLimit*n+64
}

// buildColIndex indexes rows on the F column (onF) or the T column.
func buildColIndex(rows []row, onF bool) *colIndex {
	idx := &colIndex{}
	buildColIndexInto(idx, rows, onF)
	idx.sortBuf = nil
	return idx
}

// colKey returns the indexed column of one row.
func colKey(w row, onF bool) int32 {
	if onF {
		return w.f
	}
	return w.t
}

// sized returns buf with length n, reusing its backing array when it is large
// enough; the contents are unspecified.
func sized[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}

// buildColIndexInto (re)builds idx over rows, reusing its backing arrays when
// their capacity suffices — the pooled-execution path rebuilds indexes over
// same-shaped temporaries every request, so after warmup a rebuild allocates
// nothing. The dense placement runs fill-free: buckets are filled by advancing
// offs[k] itself, which afterwards holds bucket ends, and one shift restores
// the starts. The sparse placement sorts (key, position) pairs packed into one
// word each.
func buildColIndexInto(idx *colIndex, rows []row, onF bool) {
	n := len(rows)
	idx.built = n
	if idx.extra != nil {
		clear(idx.extra)
	}
	lo, hi := int32(0), int32(-1)
	for i := 0; i < n; i++ {
		k := colKey(rows[i], onF)
		lo, hi = min(lo, k), max(hi, k)
	}
	idx.sparse = !denseKeys(lo, hi, n)
	idx.pos = sized(idx.pos, n)
	pos := idx.pos
	if idx.sparse {
		buf := sized(idx.sortBuf, n)
		for i := 0; i < n; i++ {
			buf[i] = uint64(sortableKey(colKey(rows[i], onF)))<<32 | uint64(i)
		}
		slices.Sort(buf)
		keys, offs := idx.keys[:0], idx.offs[:0]
		for i, e := range buf {
			if k := int32(sortableKey(int32(e >> 32))); i == 0 || k != keys[len(keys)-1] {
				keys, offs = append(keys, k), append(offs, int32(i))
			}
			pos[i] = int32(uint32(e))
		}
		idx.offs, idx.sortBuf = append(offs, int32(n)), buf
		idx.setKeys(keys)
		idx.distinct = len(keys)
		return
	}
	idx.offs = sized(idx.offs, int(hi)+2)
	offs := idx.offs
	clear(offs)
	for i := 0; i < n; i++ {
		offs[colKey(rows[i], onF)+1]++
	}
	distinct := 0
	for k := 1; k < len(offs); k++ {
		if offs[k] > 0 {
			distinct++
		}
		offs[k] += offs[k-1]
	}
	for i := 0; i < n; i++ {
		k := colKey(rows[i], onF)
		pos[offs[k]] = int32(i)
		offs[k]++
	}
	copy(offs[1:], offs[:len(offs)-1])
	offs[0] = 0
	idx.distinct = distinct
}

// sortableKey maps a key to the unsigned word that sorts as the key does, and
// that word back to the key.
func sortableKey(k int32) uint32 { return uint32(k) ^ 1<<31 }

// compact carries the index across a compaction of its relation, which kept
// the rows' order: remap[p] is the new position of the row that was at p,
// negative when the row was dropped, and firstDead is the first dropped
// position. Each entry moves down by the dropped rows before it, in one linear
// pass; a snapshot that lost no row — the dropped rows were all appended after
// it — is kept as it is. The snapshot arrays may be shared with the relation
// this one was cloned from, so they are replaced, never written; the overflow
// table is the relation's own.
func (idx *colIndex) compact(remap []int32, firstDead int) {
	over := make([]int32, 0, len(remap)-idx.built)
	if firstDead < idx.built {
		pos := make([]int32, 0, len(idx.pos))
		var gone []int32 // where in idx.pos the dropped entries were, ascending
		for j, p := range idx.pos {
			if np := remap[p]; np >= 0 {
				pos = append(pos, np)
			} else {
				gone = append(gone, int32(j))
			}
		}
		offs := make([]int32, len(idx.offs))
		d, distinct := 0, 0
		for b, o := range idx.offs {
			for d < len(gone) && gone[d] < o {
				d++
			}
			offs[b] = o - int32(d)
			if b > 0 && offs[b] > offs[b-1] {
				distinct++
			}
		}
		if idx.sparse && distinct < len(idx.keys) {
			// A key whose bucket emptied leaves the key list.
			keys, starts := make([]int32, 0, distinct), make([]int32, 0, distinct+1)
			for b, k := range idx.keys {
				if offs[b+1] > offs[b] {
					keys, starts = append(keys, k), append(starts, offs[b])
				}
			}
			idx.dir = nil // the old one may be shared too
			idx.setKeys(keys)
			offs = append(starts, int32(len(pos)))
		}
		idx.offs, idx.pos, idx.built, idx.distinct = offs, pos, len(pos), distinct
	}
	// The overflow's slices share their arrays with the parent relation's too:
	// the survivors go to one array of their own.
	for k, ps := range idx.extra {
		if int(ps[len(ps)-1]) < firstDead {
			continue // ascending, so none of them moved
		}
		at := len(over)
		for _, p := range ps {
			if np := remap[p]; np >= 0 {
				over = append(over, np)
			}
		}
		if at == len(over) {
			delete(idx.extra, k)
		} else {
			idx.extra[k] = over[at:len(over):len(over)]
		}
	}
}

// folded returns a snapshot of the whole index, overflow included, for a
// relation of n rows: one merge of the snapshot's buckets with the overflow's
// keys, sorted first.
func (idx *colIndex) folded(n int) *colIndex {
	xkeys := make([]int32, 0, len(idx.extra))
	for k := range idx.extra {
		xkeys = append(xkeys, k)
	}
	slices.Sort(xkeys)
	nb := len(idx.offs) - 1
	keyOf := func(b int) int32 {
		if idx.sparse {
			return idx.keys[b]
		}
		return int32(b)
	}
	lo, hi := int32(0), int32(-1)
	if nb > 0 {
		lo, hi = min(lo, keyOf(0)), keyOf(nb-1)
	}
	if len(xkeys) > 0 {
		lo, hi = min(lo, xkeys[0]), max(hi, xkeys[len(xkeys)-1])
	}
	w := indexWriter{idx: &colIndex{built: n, pos: make([]int32, 0, n)}}
	if w.idx.sparse = !denseKeys(lo, hi, n); w.idx.sparse {
		w.idx.keys = make([]int32, 0, idx.distinct+len(xkeys))
		w.idx.offs = make([]int32, 0, idx.distinct+len(xkeys)+1)
	} else {
		w.idx.offs = make([]int32, int(hi)+2)
	}
	x := 0
	for b := 0; b < nb; b++ {
		snap := idx.pos[idx.offs[b]:idx.offs[b+1]]
		if len(snap) == 0 && x == len(xkeys) {
			continue
		}
		k := keyOf(b)
		for ; x < len(xkeys) && xkeys[x] < k; x++ {
			w.put(xkeys[x], idx.extra[xkeys[x]])
		}
		w.put(k, snap)
		if x < len(xkeys) && xkeys[x] == k {
			w.put(k, idx.extra[k])
			x++
		}
	}
	for ; x < len(xkeys); x++ {
		w.put(xkeys[x], idx.extra[xkeys[x]])
	}
	return w.finish()
}

// indexWriter lays a snapshot out bucket by bucket, keys ascending.
type indexWriter struct {
	idx  *colIndex
	next int32 // dense form: the first key whose bucket has no start yet
}

// put appends ps to the bucket of k, which is the last one opened or a later
// one.
func (w *indexWriter) put(k int32, ps []int32) {
	if len(ps) == 0 {
		return
	}
	idx := w.idx
	n := int32(len(idx.pos))
	idx.pos = append(idx.pos, ps...)
	switch {
	case !idx.sparse:
		if k >= w.next {
			idx.distinct++
		}
		for ; w.next <= k; w.next++ {
			idx.offs[w.next] = n
		}
	case len(idx.keys) == 0 || idx.keys[len(idx.keys)-1] != k:
		idx.keys, idx.offs = append(idx.keys, k), append(idx.offs, n)
		idx.distinct++
	}
}

func (w *indexWriter) finish() *colIndex {
	idx := w.idx
	if idx.sparse {
		idx.offs = append(idx.offs, int32(len(idx.pos)))
		idx.setKeys(idx.keys)
		return idx
	}
	for k := int(w.next); k < len(idx.offs); k++ {
		idx.offs[k] = int32(len(idx.pos))
	}
	return idx
}

// setKeys installs the sparse form's key list and lays the directory out over
// it: the smallest power-of-two slot width that needs fewer than two slots a
// key.
func (idx *colIndex) setKeys(keys []int32) {
	idx.keys = keys
	if len(keys) == 0 {
		return
	}
	first := uint32(keys[0])
	span := uint32(keys[len(keys)-1]) - first
	idx.shift = 0
	for span>>idx.shift >= uint32(2*len(keys)) {
		idx.shift++
	}
	slots := int(span>>idx.shift) + 1
	idx.dir = sized(idx.dir, slots+1)
	b := 0
	for j := range idx.dir {
		for b < len(keys) && (uint32(keys[b])-first)>>idx.shift < uint32(j) {
			b++
		}
		idx.dir[j] = int32(b)
	}
}

// bucketOf finds the bucket of k in the sparse form: a binary search among
// the keys of k's directory slot — one or two, unless the keys are bunched.
func (idx *colIndex) bucketOf(k int32) (int, bool) {
	keys := idx.keys
	if len(keys) == 0 || k < keys[0] || k > keys[len(keys)-1] {
		return 0, false
	}
	j := (uint32(k) - uint32(keys[0])) >> idx.shift
	at, n := int(idx.dir[j]), int(idx.dir[j+1]-idx.dir[j])
	for n > 1 {
		half := n >> 1
		if keys[at+half] <= k {
			at += half
		}
		n -= half
	}
	return at, n == 1 && keys[at] == k
}

// lookup returns the snapshot positions and the overflow positions for a
// key, in insertion order (all overflow positions follow all snapshot
// positions). Callers iterate both slices; keeping them separate avoids an
// allocation on the hot probe path.
func (idx *colIndex) lookup(k int32) (snap, over []int32) {
	if k == 0 && idx.scoped {
		return idx.rootSnap, idx.rootOver
	}
	return idx.snap(k), idx.over(k)
}

// snap returns the snapshot positions of a key.
func (idx *colIndex) snap(k int32) []int32 {
	if idx.sparse {
		if b, ok := idx.bucketOf(k); ok {
			return idx.pos[idx.offs[b]:idx.offs[b+1]]
		}
	} else if k >= 0 && int(k)+1 < len(idx.offs) {
		return idx.pos[idx.offs[k]:idx.offs[k+1]]
	}
	return nil
}

// over returns the overflow positions of a key. A store update appends the
// rows of new nodes, whose IDs are above every old one: a key outside the
// overflow's range, as most old nodes are, skips the map.
func (idx *colIndex) over(k int32) []int32 {
	if k < idx.xlo || k > idx.xhi {
		return nil
	}
	return idx.extra[k]
}

// contains reports whether any tuple holds the key — the membership probe
// semijoin-style operators use instead of materializing a value set. The
// snapshot answers first.
func (idx *colIndex) contains(k int32) bool {
	if k == 0 && idx.scoped {
		return len(idx.rootSnap)+len(idx.rootOver) > 0
	}
	return len(idx.snap(k)) > 0 || len(idx.over(k)) > 0
}

// cloneFor returns the index for a clone of the relation, which has n rows: a
// copy sharing the immutable snapshot arrays, in which only the overflow
// table, which future adds mutate, is copied. The overflow slices are capped
// so an append by either side reallocates instead of aliasing. An overflow
// past its bound is folded instead: the copy is what grows with it, and idx,
// which a reader may hold, stays as it is.
func (idx *colIndex) cloneFor(n int) *colIndex {
	if idx.overgrown(n) {
		return idx.folded(n)
	}
	c := *idx // a stored relation's index: not pooled, not scoped
	c.extra = nil
	if len(idx.extra) > 0 {
		c.extra = make(map[int32][]int32, len(idx.extra))
		for k, v := range idx.extra {
			c.extra[k] = v[:len(v):len(v)]
		}
	}
	return &c
}

// overgrown reports whether, at n rows, the overflow is past its bound.
func (idx *colIndex) overgrown(n int) bool {
	return n-idx.built > idx.built/foldShare+foldSlack
}

// add extends the index with one appended tuple.
func (idx *colIndex) add(k int32, pos int32) {
	if idx.extra == nil {
		idx.extra = map[int32][]int32{}
	}
	if len(idx.extra) == 0 {
		idx.xlo, idx.xhi = k, k
	}
	idx.xlo, idx.xhi = min(idx.xlo, k), max(idx.xhi, k)
	idx.extra[k] = append(idx.extra[k], pos)
}
