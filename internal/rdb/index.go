package rdb

import (
	"math"
	"math/bits"
	"slices"
	"sync/atomic"
)

// idSet is a set of int32 node IDs, one bit each over [lo, lo+64·len(words)):
// what a column index's probes read (colIndex.set), what a pooled temporary
// asked only for membership builds instead of an index (members), the
// arena's dedup scratch (seenIDs) and the walk that lists an answer
// (Relation.AnswerIDs). It is built only over keys that span little (spans);
// past that bound each caller's searched, sorted or hashed path runs as
// before.
type idSet struct {
	lo    int32
	words []uint64
}

// spanPerKey bounds a set: n keys in [lo, hi] get one only when
// hi − lo ≤ spanPerKey·n, so it costs at most about a word a key.
const spanPerKey = 64

// spans reports whether n keys in [lo, hi] get a set.
func spans(lo, hi int32, n int) bool {
	return lo <= hi && int64(hi)-int64(lo) <= spanPerKey*int64(n)
}

// rowSpan returns the least and the greatest key of the F (onF) or T column
// of rows; lo > hi when there is none.
func rowSpan(rows []row, onF bool) (lo, hi int32) {
	lo, hi = math.MaxInt32, math.MinInt32
	for _, w := range rows {
		k := colKey(w, onF)
		lo, hi = min(lo, k), max(hi, k)
	}
	return lo, hi
}

// colSpan is rowSpan over the rows of rs, with their count.
func colSpan(onF bool, rs ...*Relation) (lo, hi int32, n int) {
	lo, hi = math.MaxInt32, math.MinInt32
	for _, r := range rs {
		l, h := rowSpan(r.rows, onF)
		lo, hi, n = min(lo, l), max(hi, h), n+len(r.rows)
	}
	return lo, hi, n
}

// reset empties s for keys in [lo, hi], reusing its words when they suffice.
func (s *idSet) reset(lo, hi int32) {
	s.lo = lo
	s.words = sized(s.words, int((uint32(hi)-uint32(lo))>>6)+1)
	clear(s.words)
}

// fill makes s the set of the F (onF) or T column of rows, or reports false,
// s left empty, where the keys span too wide for one.
func (s *idSet) fill(rows []row, onF bool) bool {
	s.words = s.words[:0]
	if len(rows) == 0 {
		return true
	}
	lo, hi := rowSpan(rows, onF)
	if !spans(lo, hi, len(rows)) {
		return false
	}
	s.reset(lo, hi)
	for _, w := range rows {
		s.add(colKey(w, onF))
	}
	return true
}

// has reports whether k is in s; no key outside its span is.
func (s *idSet) has(k int32) bool {
	i := uint32(k) - uint32(s.lo)
	return i>>6 < uint32(len(s.words)) && s.words[i>>6]&(1<<(i&63)) != 0
}

// add inserts k, which must lie in the span s was reset for, and reports
// whether it was new.
func (s *idSet) add(k int32) bool {
	i := uint32(k) - uint32(s.lo)
	w, bit := &s.words[i>>6], uint64(1)<<(i&63)
	was := *w & bit
	*w |= bit
	return was == 0
}

// appendIDs appends the members of s not below from to dst, ascending.
func appendIDs[T int | int32](dst []T, s *idSet, from int32) []T {
	for j, w := range s.words {
		base := int64(s.lo) + int64(j)<<6
		if d := int64(from) - base; d >= 64 {
			continue
		} else if d > 0 {
			w &= ^uint64(0) << d
		}
		for ; w != 0; w &= w - 1 {
			dst = append(dst, T(base)+T(bits.TrailingZeros64(w)))
		}
	}
	return dst
}

// colIndex maps a column value (F or T) to the positions of the tuples
// holding it. It replaces the seed's lazy map[int][]int32 indexes, which were
// discarded on every insert and rebuilt from scratch on the next probe.
//
// The index is built once over a snapshot of the relation, in CSR form: the
// distinct keys are listed in ascending order, and bucket b — that of keys[b]
// — holds pos[offs[b]:offs[b+1]], positions ascending. Keys that span little
// (spans) — the usual case, node IDs are dense — are also an idSet: contains
// tests a bit, a key's bucket is the rank of its bit, and the build is a
// counting sort on that rank. Keys that span wide are sorted, and a bucket is
// found by binary search, inside the slot of a directory that cuts the key
// range into as many equal parts as there are keys, so a probe compares a key
// or two. Tuples appended after the build —
// the delta rows a semi-naive fixpoint adds while probing, the rows a store
// update inserts — extend the index incrementally through a small sorted
// overflow instead of invalidating it; a clone or a view's materialization folds
// the overflow into a new snapshot once it outgrows a fixed share of it
// (folded), and a compaction carries the index over to the survivors (compact).
//
// Positions of tombstoned rows stay in the index until a compaction: lookup
// hands them out, and its callers skip them; contains answers for live rows
// only, through rel.
type colIndex struct {
	keys []int32
	offs []int32
	pos  []int32
	// set holds the keys where they span little, ranks[j] the number of keys
	// in set.words[:j]; where they span wide set has no words and dir[j] is
	// where the keys from keys[0] + j<<shift up begin. All are shared by
	// clones like the rest of the snapshot.
	set   idSet
	ranks []int32
	dir   []int32
	shift uint8
	// built is the number of leading tuples the snapshot covers. Positions
	// appended afterwards are the overflow: xpos[i] holds key xkeys[i], the
	// pairs sorted by key and, within a key, by position; every key lies in
	// [xlo, xhi]. Both arrays are pointer-free, so a copy is two memmoves and
	// the GC scans neither.
	built       int
	xkeys, xpos []int32
	xlo, xhi    int32
	// shared, allocated with the overflow arrays, is set once they are
	// another version's too (cloneFor): neither writes them again, the first
	// write of either copies them (ownExtra). It lives beside the arrays, not
	// in the index, so marking a parent's overflow writes no field of the
	// parent's index, which its readers hold.
	shared *atomic.Bool

	// sortBuf is the sorting build's scratch, kept only by a pooled relation's
	// index (see buildColIndexInto).
	sortBuf []uint64

	// scoped marks the F index of a document-scoped view (scope.go): a copy
	// of the base relation's index in which key 0 — the virtual root, the one
	// key that is in every document's scope — finds only the scope's own
	// root row (rootSnap/rootOver, positions in the base's rows).
	scoped             bool
	rootSnap, rootOver []int32

	// rel is the relation whose rows the positions index — the base relation
	// for a scoped view's index — and whose tombstones contains skips; nil
	// for a key set (members), whose relation has none. tombed says rel has
	// tombstones; rel's take and compact keep it, so a relation without them
	// answers contains without reading rel.
	rel    *Relation
	tombed bool
}

const (
	// foldShare and foldSlack bound the overflow a view's materialization
	// keeps: past built/foldShare + foldSlack entries it is folded into the
	// snapshot, so probing it stays a fixed share of the rows' cost and a fold
	// costs O(foldShare) per appended row. A stored relation's bound is tighter
	// (overgrown).
	foldShare = 16
	foldSlack = 64
)

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
// nothing. Keys that span little are placed by rank, fill-free: buckets are
// filled by advancing offs[b] itself, which afterwards holds bucket ends, and
// one shift restores the starts. Keys that span wide are sorted as (key,
// position) pairs packed into one word each.
func buildColIndexInto(idx *colIndex, rows []row, onF bool) {
	n := len(rows)
	idx.built = n
	idx.xkeys, idx.xpos = idx.xkeys[:0], idx.xpos[:0]
	idx.pos = sized(idx.pos, n)
	pos := idx.pos
	if idx.set.fill(rows, onF) {
		idx.rank()
		idx.keys = appendIDs(idx.keys[:0], &idx.set, math.MinInt32)
		offs := sized(idx.offs, len(idx.keys)+1)
		clear(offs)
		for _, w := range rows {
			offs[idx.rankOf(colKey(w, onF))+1]++
		}
		for b := 1; b < len(offs); b++ {
			offs[b] += offs[b-1]
		}
		for i, w := range rows {
			b := idx.rankOf(colKey(w, onF))
			pos[offs[b]] = int32(i)
			offs[b]++
		}
		copy(offs[1:], offs[:len(offs)-1])
		offs[0] = 0
		idx.offs = offs
		return
	}
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
	idx.layKeys(keys)
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
// is made the relation's own and filtered in place.
func (idx *colIndex) compact(remap []int32, firstDead int) {
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
		keys := idx.keys
		if distinct < len(idx.keys) {
			// A key whose bucket emptied leaves the key list.
			kept, starts := make([]int32, 0, distinct), make([]int32, 0, distinct+1)
			for b, k := range idx.keys {
				if offs[b+1] > offs[b] {
					kept, starts = append(kept, k), append(starts, offs[b])
				}
			}
			keys, offs = kept, append(starts, int32(len(pos)))
		}
		idx.offs, idx.pos, idx.built = offs, pos, len(pos)
		idx.set, idx.ranks, idx.dir = idSet{}, nil, nil // they may be shared too
		idx.layKeys(keys)
	}
	// remap keeps the rows' order, so the survivors stay sorted by key and,
	// within a key, by position.
	if len(idx.xkeys) > 0 && idx.rel != nil {
		idx.rel.filtered++
	}
	idx.ownExtra()
	keys, pos := idx.xkeys[:0], idx.xpos[:0]
	for i, p := range idx.xpos {
		if np := remap[p]; np >= 0 {
			keys, pos = append(keys, idx.xkeys[i]), append(pos, np)
		}
	}
	idx.xkeys, idx.xpos = keys, pos
}

// folded returns a snapshot of the whole index, overflow included, for r:
// one merge of the snapshot's buckets with the overflow, both sorted by key.
func (idx *colIndex) folded(r *Relation) *colIndex {
	n := len(r.rows)
	r.folds++
	c := &colIndex{
		rel:    r,
		tombed: r.nDead > 0,
		built:  n,
		keys:   make([]int32, 0, len(idx.keys)+len(idx.xkeys)),
		offs:   make([]int32, 0, len(idx.keys)+len(idx.xkeys)+1),
		pos:    make([]int32, 0, n),
	}
	put := func(k int32, ps []int32) { // k is the last key opened or a later one
		if len(ps) == 0 {
			return
		}
		if len(c.keys) == 0 || c.keys[len(c.keys)-1] != k {
			c.keys, c.offs = append(c.keys, k), append(c.offs, int32(len(c.pos)))
		}
		c.pos = append(c.pos, ps...)
	}
	// An overflow entry whose key a bucket holds too follows that bucket's
	// positions: it is put once the loop has passed the key.
	xkeys, x := idx.xkeys, 0
	for b, k := range idx.keys {
		for ; x < len(xkeys) && xkeys[x] < k; x++ {
			put(xkeys[x], idx.xpos[x:x+1])
		}
		put(k, idx.pos[idx.offs[b]:idx.offs[b+1]])
	}
	for ; x < len(xkeys); x++ {
		put(xkeys[x], idx.xpos[x:x+1])
	}
	c.offs = append(c.offs, int32(len(c.pos)))
	c.layKeys(c.keys)
	return c
}

// layKeys installs the key list of a snapshot laid out by a sort, a
// compaction or a fold: as a set with ranks where the keys span little, else
// under a directory — the smallest power-of-two slot width that needs fewer
// than two slots a key. It writes the set's and the directory's arrays in
// place: the caller owns them.
func (idx *colIndex) layKeys(keys []int32) {
	idx.keys = keys
	idx.set.words = idx.set.words[:0]
	if len(keys) == 0 {
		return
	}
	first, last := keys[0], keys[len(keys)-1]
	if spans(first, last, idx.built) {
		idx.set.reset(first, last)
		for _, k := range keys {
			idx.set.add(k)
		}
		idx.rank()
		return
	}
	span := uint32(last) - uint32(first)
	idx.shift = 0
	for span>>idx.shift >= uint32(2*len(keys)) {
		idx.shift++
	}
	idx.dir = sized(idx.dir, int(span>>idx.shift)+2)
	b := 0
	for j := range idx.dir {
		for b < len(keys) && (uint32(keys[b])-uint32(first))>>idx.shift < uint32(j) {
			b++
		}
		idx.dir[j] = int32(b)
	}
}

// rank lays out ranks over the set's words.
func (idx *colIndex) rank() {
	idx.ranks = sized(idx.ranks, len(idx.set.words))
	n := int32(0)
	for j, w := range idx.set.words {
		idx.ranks[j], n = n, n+int32(bits.OnesCount64(w))
	}
}

// rankOf returns the bucket of a key the set holds: the keys below it.
func (idx *colIndex) rankOf(k int32) int {
	i := uint32(k) - uint32(idx.set.lo)
	return int(idx.ranks[i>>6]) + bits.OnesCount64(idx.set.words[i>>6]&(1<<(i&63)-1))
}

// bucket finds the bucket of k: the rank of its bit in the set or, without a
// set, a binary search among the keys of k's directory slot — one or two,
// unless the keys are bunched.
func (idx *colIndex) bucket(k int32) (int, bool) {
	if len(idx.set.words) > 0 {
		if !idx.set.has(k) {
			return 0, false
		}
		return idx.rankOf(k), true
	}
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
	if b, ok := idx.bucket(k); ok {
		return idx.pos[idx.offs[b]:idx.offs[b+1]]
	}
	return nil
}

// over returns the overflow positions of a key. A store update appends the
// rows of new nodes, whose IDs are above every old one: a key outside the
// overflow's range, as most old nodes are, skips the search — inline, on
// every probe of every index.
func (idx *colIndex) over(k int32) []int32 {
	if k < idx.xlo || k > idx.xhi {
		return nil
	}
	return idx.overRun(k)
}

// overRun binary-searches the overflow for the positions of k.
func (idx *colIndex) overRun(k int32) []int32 {
	lo := keyBound(idx.xkeys, k, false)
	hi := lo + keyBound(idx.xkeys[lo:], k, true)
	return idx.xpos[lo:hi:hi]
}

// keyBound returns the number of ascending keys below k, or at most k where
// past is set.
func keyBound(keys []int32, k int32, past bool) int {
	at, n := 0, len(keys)
	for n > 0 {
		half := n >> 1
		if key := keys[at+half]; key < k || past && key == k {
			at, n = at+half+1, n-half-1
		} else {
			n = half
		}
	}
	return at
}

// contains reports whether any live tuple holds the key — the membership
// probe semijoin-style operators use instead of materializing a value set.
// The snapshot answers first: a bit of its set, or, without one, its bucket.
// Where the relation has tombstones a hit is confirmed on the key's rows: a
// key all of whose rows are dead — a node whose last child a delete took — is
// not held.
func (idx *colIndex) contains(k int32) bool {
	hit := false
	switch {
	case k == 0 && idx.scoped:
		return idx.liveKey(k)
	case len(idx.set.words) > 0:
		hit = idx.set.has(k)
	default:
		_, hit = idx.bucket(k)
	}
	if !hit && len(idx.over(k)) == 0 {
		return false
	}
	return !idx.tombed || idx.liveKey(k)
}

// liveKey reports whether a live row holds k: contains' confirmation, kept
// out of it so that a relation without tombstones pays no part of it.
func (idx *colIndex) liveKey(k int32) bool {
	snap, over := idx.lookup(k)
	for _, part := range [2][]int32{snap, over} {
		for _, p := range part {
			if !idx.tombed || !idx.rel.isDead(int(p)) {
				return true
			}
		}
	}
	return false
}

// cloneFor returns the index for c, a clone of the relation holding the same
// rows: a copy sharing the immutable snapshot arrays and, until one of the two
// writes them, the overflow arrays (ownExtra) — a version that only
// tombstones, as a delete's does, copies none of them. An overflow past its bound is folded
// instead: the copy is what grows with it, and idx, which a reader may hold,
// stays as it is.
func (idx *colIndex) cloneFor(c *Relation) *colIndex {
	if idx.overgrown(len(c.rows)) {
		return idx.folded(c)
	}
	cp := *idx // not pooled, not scoped
	cp.rel = c
	if len(idx.xkeys) > 0 {
		idx.shared.Store(true)
	} else {
		cp.xkeys, cp.xpos = nil, nil // empty arrays would be shared unmarked
	}
	return &cp
}

// ownExtra makes the overflow arrays idx's own before a write: shared ones
// are copied, with room to grow, and the copy counted on idx's relation.
func (idx *colIndex) ownExtra() {
	if idx.shared == nil || !idx.shared.Load() {
		return
	}
	n := len(idx.xkeys)
	idx.xkeys = append(make([]int32, 0, n+n/4+8), idx.xkeys...)
	idx.xpos = append(make([]int32, 0, n+n/4+8), idx.xpos...)
	idx.shared = new(atomic.Bool)
	if idx.rel != nil {
		idx.rel.overCopied += n
	}
}

// overgrown reports whether, at n rows, the overflow is past its bound: a
// fixed share of the snapshot, and for a stored relation at most about its
// square root. A version of a stored relation that writes its overflow copies
// it (ownExtra), so there a fold's O(built) every √built appended rows
// balances the O(√built) each version's copy costs.
func (idx *colIndex) overgrown(n int) bool {
	if idx.rel != nil && idx.rel.stored {
		return n-idx.built > min(idx.built/foldShare, int(math.Sqrt(float64(idx.built))))+foldSlack
	}
	return n-idx.built > idx.built/foldShare+foldSlack
}

// add extends the index with one appended tuple, whose position is above
// every indexed one: it goes after the key's other positions, and after every
// pair where its key is the largest, as a new node's is.
func (idx *colIndex) add(k int32, pos int32) {
	idx.ownExtra()
	if idx.shared == nil {
		idx.shared = new(atomic.Bool)
	}
	if len(idx.xkeys) == 0 {
		idx.xlo, idx.xhi = k, k
	}
	idx.xlo, idx.xhi = min(idx.xlo, k), max(idx.xhi, k)
	at := len(idx.xkeys)
	if at > 0 && k < idx.xkeys[at-1] {
		at = keyBound(idx.xkeys, k, true)
	}
	idx.xkeys = slices.Insert(idx.xkeys, at, k)
	idx.xpos = slices.Insert(idx.xpos, at, pos)
}
