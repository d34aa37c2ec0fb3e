package rdb

// colIndex maps a column value (F or T) to the positions of the tuples
// holding it. It replaces the seed's lazy map[int][]int32 indexes, which were
// discarded on every insert and rebuilt from scratch on the next probe.
//
// The index is built once over a snapshot of the relation, in CSR form when
// the key range is dense (offsets into one shared position array — the usual
// case, node IDs are dense) and as a single-build map when it is sparse.
// Tuples appended after the build — the delta rows a semi-naive fixpoint
// adds while probing — extend the index incrementally through a small
// overflow table instead of invalidating it.
type colIndex struct {
	// Dense (CSR) form: bucket k holds pos[offs[k]:offs[k+1]].
	offs []int32
	pos  []int32
	// Sparse form, used when max(key) ≫ tuple count.
	sparse map[int32][]int32
	// built is the number of leading tuples the snapshot covers; positions
	// appended afterwards live in extra.
	built    int
	extra    map[int32][]int32
	distinct int // number of distinct keys at build time

	// scoped marks the F index of a document-scoped view (scope.go): a copy
	// of the base relation's index in which key 0 — the virtual root, the one
	// key that is in every document's scope — finds only the scope's own
	// root row (rootSnap/rootOver, positions in the base's rows).
	scoped             bool
	rootSnap, rootOver []int32
}

// denseLimit: build CSR when maxKey is within this factor of the tuple
// count; beyond it the offsets array would dominate memory.
const denseLimit = 8

// buildColIndex indexes rows on the F column (onF) or the T column.
func buildColIndex(rows []row, onF bool) *colIndex {
	idx := &colIndex{}
	buildColIndexInto(idx, rows, onF)
	return idx
}

// colKey returns the indexed column of one row.
func colKey(w row, onF bool) int32 {
	if onF {
		return w.f
	}
	return w.t
}

// buildColIndexInto (re)builds idx over rows, reusing its offs/pos backing
// arrays when their capacity suffices — the pooled-execution path rebuilds
// indexes over same-shaped temporaries every request, so after warmup a
// rebuild allocates nothing. The CSR placement runs fill-free: buckets are
// filled by advancing offs[k] itself, which afterwards holds bucket ends,
// and one shift restores the starts.
func buildColIndexInto(idx *colIndex, rows []row, onF bool) {
	n := len(rows)
	idx.built = n
	if idx.extra != nil {
		clear(idx.extra)
	}
	maxKey := int32(-1)
	sparse := false
	for i := 0; i < n; i++ {
		k := colKey(rows[i], onF)
		if k < 0 {
			sparse = true
			break
		}
		if k > maxKey {
			maxKey = k
		}
	}
	if !sparse && int(maxKey)+2 > denseLimit*n+64 {
		sparse = true
	}
	if sparse {
		m := idx.sparse
		if m == nil {
			m = make(map[int32][]int32, n)
		} else {
			clear(m)
		}
		for i := 0; i < n; i++ {
			k := colKey(rows[i], onF)
			m[k] = append(m[k], int32(i))
		}
		idx.sparse = m
		idx.offs, idx.pos = nil, nil
		idx.distinct = len(m)
		return
	}
	need := int(maxKey) + 2
	if cap(idx.offs) >= need {
		idx.offs = idx.offs[:need]
		for i := range idx.offs {
			idx.offs[i] = 0
		}
	} else {
		idx.offs = make([]int32, need)
	}
	offs := idx.offs
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
	if cap(idx.pos) >= n {
		idx.pos = idx.pos[:n]
	} else {
		idx.pos = make([]int32, n)
	}
	pos := idx.pos
	for i := 0; i < n; i++ {
		k := colKey(rows[i], onF)
		pos[offs[k]] = int32(i)
		offs[k]++
	}
	copy(offs[1:], offs[:len(offs)-1])
	offs[0] = 0
	idx.sparse = nil
	idx.distinct = distinct
}

// lookup returns the snapshot positions and the overflow positions for a
// key, in insertion order (all overflow positions follow all snapshot
// positions). Callers iterate both slices; keeping them separate avoids an
// allocation on the hot probe path.
func (idx *colIndex) lookup(k int32) (snap, over []int32) {
	if k == 0 && idx.scoped {
		return idx.rootSnap, idx.rootOver
	}
	if idx.sparse != nil {
		snap = idx.sparse[k]
	} else if k >= 0 && int(k)+1 < len(idx.offs) {
		snap = idx.pos[idx.offs[k]:idx.offs[k+1]]
	}
	if idx.extra != nil {
		over = idx.extra[k]
	}
	return snap, over
}

// contains reports whether any tuple holds the key — the membership probe
// semijoin-style operators use instead of materializing a value set.
func (idx *colIndex) contains(k int32) bool {
	snap, over := idx.lookup(k)
	return len(snap) > 0 || len(over) > 0
}

// clone returns a copy sharing the immutable snapshot arrays; only the
// overflow table, which future adds mutate, is copied. The overflow slices
// are capped so an append by either side reallocates instead of aliasing.
func (idx *colIndex) clone() *colIndex {
	c := &colIndex{
		offs:     idx.offs,
		pos:      idx.pos,
		sparse:   idx.sparse,
		built:    idx.built,
		distinct: idx.distinct,
	}
	if len(idx.extra) > 0 {
		c.extra = make(map[int32][]int32, len(idx.extra))
		for k, v := range idx.extra {
			c.extra[k] = v[:len(v):len(v)]
		}
	}
	return c
}

// add extends the index with one appended tuple.
func (idx *colIndex) add(k int32, pos int32) {
	if idx.extra == nil {
		idx.extra = map[int32][]int32{}
	}
	idx.extra[k] = append(idx.extra[k], pos)
}
