// Package rdb is the in-memory relational engine that stands in for the
// commercial RDBMS of the paper's experiments (IBM DB2 / Oracle). It stores
// the shredded edge relations R_A(F, T, V) and executes ra.Program plans,
// including the single-input least-fixpoint operator Φ(R) with pushed
// start/end constraints (§5.2) and the multi-relation SQL'99-style fixpoint
// used by the SQLGen-R baseline (§3.1).
//
// The engine uses semi-naive evaluation for both fixpoint flavors and hash
// joins throughout, and exposes execution statistics (join/union/LFP
// iteration counts, tuples produced) so benchmarks can report the cost
// drivers the paper discusses.
//
// Storage is compact: V strings are dictionary-encoded into int32 symbols by
// a DB-level Interner, tuples are stored as three int32 columns in one row
// array, and the per-column indexes are CSR offset/position arrays built once
// per snapshot and extended as fixpoint deltas append rows. (F, T) dedup of an
// operator's output runs through an open-addressing pair set only where a
// duplicate can arise (see appendDistinct). A stored relation holds no pair
// set at all: in τd(T) every node is the T of exactly one tuple, so bulk
// loaders append without a probe and its T index answers (F, T) membership
// (see find). The operator kernels are in ops.go.
package rdb

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// Tuple is one row of an (F, T, V) relation: F is the parent ("from") node
// ID, T the node's own ID, V its text value. F == 0 encodes the virtual
// document root '_'. It is the exchange form used at the package boundary;
// internally rows hold an interned symbol instead of the string.
type Tuple struct {
	F, T int
	V    string
}

// row is the stored form of a tuple: three machine words of which the third
// is the interned V symbol.
type row struct {
	f, t, v int32
}

// Relation is a set of tuples, deduplicated on (F, T). V is functionally
// determined by T in every relation the translation produces, so (F, T)
// dedup is exact.
type Relation struct {
	Name string

	syms *Interner // shared with the owning DB; lazily private otherwise
	rows []row
	// set holds the (F, T) pair of every live row of an operator's output once
	// ensureSet has run. A stored relation never has one: its T index answers
	// membership.
	set pairSet

	// Index snapshots are built lazily on first probe. The pointers are
	// atomic and the build is mutex-serialized because base relations are
	// shared read-only across concurrently executing queries (the server
	// path): the first probes may race to build. All other mutation
	// (addRow, incremental index extension) stays single-writer per the
	// execution model.
	idxF, idxT atomic.Pointer[colIndex]
	idxMu      sync.Mutex
	idxBuilds  atomic.Int32 // index snapshot builds performed (regression stat)
	rowCopies  int32        // row arrays Clone and Compact allocated (regression stat)

	// dead marks tombstoned row positions (see Delete). Tombstones are a
	// private write-side state: a relation handed to query operators must be
	// compacted first (Tombstones() == 0), because operators scan rows and
	// probe index positions directly.
	dead  []bool
	nDead int

	// pooled marks a request-private temporary owned by an ExecState arena.
	// Pooled relations rebuild their indexes into retained scratch structs
	// (fScratch/tScratch) so a warm request's index builds allocate nothing;
	// shared relations keep allocating fresh snapshots, which concurrent
	// readers may hold indefinitely.
	pooled bool
	// stored marks a relation a DB holds (made by DB.Rel, or a Clone of one).
	stored bool

	fScratch, tScratch *colIndex
	// mem holds the F and the T key set members built for a pooled
	// temporary in place of an index; one is current while its built is the
	// row count (reset sets it to -1).
	mem [2]*colIndex

	// base, when non-nil, marks a document-scoped view of the stored relation
	// base (see scope.go): rows aliases the in-scope run of base's
	// begin-sorted index and is what scans iterate, while index probes go to
	// base's own shared indexes and resolve positions against base.rows
	// (probeRows). A view is read-only and lives for one run.
	base *Relation
}

// NewRelation returns an empty relation with the given name. Relations
// created through a DB share its interner; standalone relations get a
// private one on first insert.
func NewRelation(name string) *Relation {
	return &Relation{Name: name}
}

// newRelation returns an empty relation sharing an interner, so symbols can
// be copied between relations without resolving strings.
func newRelation(name string, syms *Interner) *Relation {
	return &Relation{Name: name, syms: syms}
}

func (r *Relation) interner() *Interner {
	if r.syms == nil {
		r.syms = NewInterner()
	}
	return r.syms
}

// Add inserts (f, t, v), ignoring duplicates on (f, t). It reports whether
// the tuple was new.
func (r *Relation) Add(f, t int, v string) bool {
	var sym int32
	if v != "" {
		sym = r.interner().Intern(v)
	}
	return r.addRow(row{f: int32(f), t: int32(t), v: sym})
}

// addRow inserts a stored-form row whose v symbol is already in r's
// interner, ignoring a duplicate (F, T), and reports whether it was new.
func (r *Relation) addRow(w row) bool {
	if r.stored {
		if r.find(w.f, w.t) >= 0 {
			return false
		}
		r.appendDistinct(w)
		// A stored relation is written by one writer no reader shares, so an
		// overflow its inserts outgrow is folded here.
		r.foldIndexes()
		return true
	}
	r.ensureSet()
	if !r.set.insert(packPair(w.f, w.t)) {
		return false
	}
	r.appendDistinct(w)
	return true
}

// put is appendDistinct where a join cannot derive w twice, else addRow.
func (r *Relation) put(w row, distinct bool) bool {
	if distinct {
		r.appendDistinct(w)
		return true
	}
	return r.addRow(w)
}

// appendDistinct appends, without hashing, a row the caller knows r does not
// hold: a kernel's output that is a subset of a set, or distinct by how it is
// enumerated. Built indexes are extended, not discarded (the seed's bug).
func (r *Relation) appendDistinct(w row) {
	pos := int32(len(r.rows))
	r.rows = append(r.rows, w)
	if idx := r.idxF.Load(); idx != nil {
		idx.add(w.f, pos)
	}
	if idx := r.idxT.Load(); idx != nil {
		idx.add(w.t, pos)
	}
}

// appendNew is appendDistinct for a bulk loader, whose every row is a node r
// does not hold yet. The row array doubles as it fills: past 256 rows append
// grows it by about a quarter, which copies a relation several times more
// over a load.
func (r *Relation) appendNew(w row) {
	if n := len(r.rows); n == cap(r.rows) && n >= 256 {
		r.grow(n)
	}
	r.appendDistinct(w)
}

// ensureSet hashes the rows distinct appends left out of the pair set. It is
// the one funnel: everything that reads or writes the set calls it first, and
// nothing calls it for a stored relation, whose membership goes through find.
func (r *Relation) ensureSet() {
	if r.base != nil || r.set.used == r.Len() {
		return
	}
	r.set.reserve(r.Len())
	for i, w := range r.rows {
		if !r.isDead(i) {
			r.set.insert(packPair(w.f, w.t))
		}
	}
}

// addFrom inserts the i-th row of src, translating the V symbol only when
// the two relations do not share an interner.
func (r *Relation) addFrom(src *Relation, w row) bool {
	if r.syms == src.syms || w.v == 0 {
		return r.addRow(w)
	}
	return r.Add(int(w.f), int(w.t), src.interner().Str(w.v))
}

// appendFrom is appendDistinct of a row of src.
func (r *Relation) appendFrom(src *Relation, w row) {
	if r.syms != src.syms && w.v != 0 {
		w.v = r.interner().Intern(src.interner().Str(w.v))
	}
	r.appendDistinct(w)
}

// grow reserves capacity for about n additional tuples.
func (r *Relation) grow(n int) {
	if cap(r.rows)-len(r.rows) < n {
		rows := make([]row, len(r.rows), len(r.rows)+n)
		copy(rows, r.rows)
		r.rows = rows
	}
	if !r.stored {
		r.ensureSet()
		r.set.reserve(n)
	}
}

// Has reports whether (f, t) is present.
func (r *Relation) Has(f, t int) bool {
	return r.hasPair(packPair(int32(f), int32(t)))
}

// hasPair is Has on a packed key. A scoped view answers from its base: a pair
// whose endpoints are in scope is in the base iff it is in the view.
func (r *Relation) hasPair(key uint64) bool {
	switch {
	case r.base != nil:
		return r.base.hasPair(key)
	case r.stored:
		return r.find(int32(key>>32), int32(key)) >= 0
	}
	r.ensureSet()
	return r.set.has(key)
}

// find returns the position of the live row (f, t), or -1: a probe of the T
// index, which a stored relation builds once, under idxMu, and shares with
// its readers. A node is the T of one row, so the probe reads one position.
func (r *Relation) find(f, t int32) int {
	snap, over := r.tIndex().lookup(t)
	for _, part := range [2][]int32{snap, over} {
		for _, p := range part {
			if r.rows[p].f == f && !r.isDead(int(p)) {
				return int(p)
			}
		}
	}
	return -1
}

// probeRows returns the row array index positions refer to: the relation's
// own rows, or the base relation's for a scoped view.
func (r *Relation) probeRows() []row {
	if r.base != nil {
		return r.base.rows
	}
	return r.rows
}

// Len returns the live tuple count (tombstoned rows excluded).
func (r *Relation) Len() int { return len(r.rows) - r.nDead }

// valStr resolves a stored V symbol.
func (r *Relation) valStr(sym int32) string {
	if sym == 0 {
		return ""
	}
	return r.interner().Str(sym)
}

// symOf returns the symbol for v in r's interner, reporting whether any
// stored string equals it — a miss means a selection on v is empty.
func (r *Relation) symOf(v string) (int32, bool) {
	if v == "" {
		return 0, true
	}
	if r.syms == nil {
		return 0, false
	}
	return r.syms.Lookup(v)
}

// Tuples materializes the relation as exchange-form tuples, resolving V
// symbols to strings and skipping tombstoned rows. The result is a fresh
// slice in insertion order; operators never call this on a hot path.
func (r *Relation) Tuples() []Tuple {
	out := make([]Tuple, 0, r.Len())
	for i, w := range r.rows {
		if r.isDead(i) {
			continue
		}
		out = append(out, Tuple{F: int(w.f), T: int(w.t), V: r.valStr(w.v)})
	}
	return out
}

// isDead reports whether row i is tombstoned; rows appended after the dead
// bitmap was sized are live by construction.
func (r *Relation) isDead(i int) bool {
	return r.nDead > 0 && i < len(r.dead) && r.dead[i]
}

// Delete tombstones the tuple (f, t), reporting whether it was present. The
// row stays in place (marked dead) until Compact; Has and Tuples reflect the
// deletion immediately, but scan/probe operators do not — callers must
// Compact before handing the relation to query execution. This is the
// write side of the store's copy-on-write epochs: deletes run on private
// clones and every published relation is compacted.
func (r *Relation) Delete(f, t int) bool {
	_, ok := r.take(int32(f), int32(t))
	return ok
}

// take is Delete handing back the row it tombstoned.
func (r *Relation) take(f, t int32) (row, bool) {
	pos := r.locate(f, t)
	if pos < 0 {
		return row{}, false
	}
	if !r.stored {
		r.set.remove(packPair(f, t))
	}
	if r.dead == nil {
		r.dead = make([]bool, len(r.rows))
	} else if len(r.dead) < len(r.rows) {
		r.dead = append(r.dead, make([]bool, len(r.rows)-len(r.dead))...)
	}
	r.dead[pos] = true
	r.nDead++
	return r.rows[pos], true
}

// UpdateValue replaces the V attribute of the live tuple (f, t), reporting
// whether it was present. V is not indexed, so no index maintenance is
// needed; (F, T) identity is unchanged.
func (r *Relation) UpdateValue(f, t int, v string) bool {
	var sym int32
	if v != "" {
		sym = r.interner().Intern(v)
	}
	return r.updateSym(f, t, sym)
}

// updateSym is UpdateValue with the value interned already.
func (r *Relation) updateSym(f, t int, sym int32) bool {
	pos := r.locate(int32(f), int32(t))
	if pos >= 0 {
		r.rows[pos].v = sym
	}
	return pos >= 0
}

// locate is find for any relation. An operator's output asks its pair set
// first, and should the T index miss a row the set holds, scans for it.
func (r *Relation) locate(f, t int32) int {
	if r.stored {
		return r.find(f, t)
	}
	if !r.hasPair(packPair(f, t)) {
		return -1
	}
	if pos := r.find(f, t); pos >= 0 {
		return pos
	}
	for i, w := range r.rows {
		if w.t == t && w.f == f && !r.isDead(i) {
			return i
		}
	}
	return -1
}

// ChildrenOf materializes the live tuples whose F attribute equals f, in
// insertion order — the child edges of node f in a stored edge relation.
func (r *Relation) ChildrenOf(f int) []Tuple {
	ps := r.ByF(f)
	out := make([]Tuple, 0, len(ps))
	for _, p := range ps {
		if r.isDead(int(p)) {
			continue
		}
		w := r.rows[p]
		out = append(out, Tuple{F: int(w.f), T: int(w.t), V: r.valStr(w.v)})
	}
	return out
}

// AppendChildIDs appends to dst the T of every live tuple whose F attribute
// equals f, in insertion order, resolving no value and copying no bucket.
func (r *Relation) AppendChildIDs(dst []int, f int) []int {
	snap, over := r.fIndex().lookup(int32(f))
	for _, part := range [2][]int32{snap, over} {
		for _, p := range part {
			if !r.isDead(int(p)) {
				dst = append(dst, int(r.rows[p].t))
			}
		}
	}
	return dst
}

// CountF returns the number of live tuples whose F attribute equals f.
func (r *Relation) CountF(f int) int {
	snap, over := r.fIndex().lookup(int32(f))
	n := len(snap) + len(over)
	if r.nDead > 0 {
		for _, part := range [2][]int32{snap, over} {
			for _, p := range part {
				if r.isDead(int(p)) {
					n--
				}
			}
		}
	}
	return n
}

// PairSetBytes reports the memory r's pair set holds: none on a stored
// relation, so none a Clone of one copies.
func (r *Relation) PairSetBytes() int { return 8 * len(r.set.slots) }

// Tombstones reports the number of deleted-but-not-compacted rows.
func (r *Relation) Tombstones() int { return r.nDead }

// Compact rewrites the relation without its tombstoned rows, restoring the
// invariant query operators rely on (every stored row is live). Built indexes
// are carried over, each position moving down by the dead rows before it. An
// operator output's pair set dropped the pairs when they were deleted, and is
// rehashed only once the tombstones they left fill a quarter of it, to keep
// its probes short; a stored relation has none to rehash. The live rows go to
// a new array, so a reader still scanning the old one is not disturbed. It
// keeps the old one's capacity: a maintained view compacts after each delete
// and grows again at the next insert, which would otherwise copy the rows
// once more.
func (r *Relation) Compact() { r.compact(false) }

// CompactClone is Compact for a Clone no reader has seen — a store update's
// copy of a relation before the update publishes it: the live rows are
// filtered in place, so the update copies the relation's rows once.
func (r *Relation) CompactClone() { r.compact(true) }

func (r *Relation) compact(inPlace bool) {
	if r.nDead == 0 {
		return
	}
	live := r.rows[:0]
	if !inPlace {
		live = make([]row, 0, cap(r.rows))
		r.rowCopies++
	}
	remap := make([]int32, len(r.rows))
	firstDead := -1
	for i, w := range r.rows {
		if r.isDead(i) {
			if remap[i] = -1; firstDead < 0 {
				firstDead = i
			}
			continue
		}
		remap[i] = int32(len(live))
		live = append(live, w)
	}
	r.rows = live
	r.dead, r.nDead = nil, 0
	if !r.stored {
		if r.ensureSet(); r.set.dels*4 > len(r.set.slots) {
			r.set.grow(r.set.used * 2)
		}
	}
	for _, idx := range [2]*colIndex{r.idxF.Load(), r.idxT.Load()} {
		if idx != nil {
			idx.compact(remap, firstDead)
		}
	}
}

// IndexBuilds reports how many index snapshot builds the relation has
// performed — the regression stat guarding against the seed behavior of
// discarding indexes on every insert and rebuilding them per probe.
func (r *Relation) IndexBuilds() int { return int(r.idxBuilds.Load()) }

// RowCopies reports how many row arrays Clone and Compact allocated for the
// relation: the copy a Clone starts with, and one per Compact that rewrote
// the rows into a new array.
func (r *Relation) RowCopies() int { return int(r.rowCopies) }

// fIndex returns the F-column index, building the snapshot on first use.
func (r *Relation) fIndex() *colIndex {
	if idx := r.idxF.Load(); idx != nil {
		return idx
	}
	r.idxMu.Lock()
	defer r.idxMu.Unlock()
	if idx := r.idxF.Load(); idx != nil {
		return idx
	}
	var idx *colIndex
	if r.base != nil {
		idx = r.scopedFIndex()
	} else if r.pooled {
		if r.fScratch == nil {
			r.fScratch = &colIndex{}
		}
		idx = r.fScratch
		buildColIndexInto(idx, r.rows, true)
	} else {
		idx = buildColIndex(r.rows, true)
	}
	r.idxBuilds.Add(1)
	r.idxF.Store(idx)
	return idx
}

// tIndex returns the T-column index, building the snapshot on first use.
func (r *Relation) tIndex() *colIndex {
	if idx := r.idxT.Load(); idx != nil {
		return idx
	}
	r.idxMu.Lock()
	defer r.idxMu.Unlock()
	if idx := r.idxT.Load(); idx != nil {
		return idx
	}
	if r.base != nil {
		// Keyed by an in-scope node, a T probe of the base finds in-scope
		// rows only: the base's shared index serves the view as it is.
		idx := r.base.tIndex()
		r.idxT.Store(idx)
		return idx
	}
	var idx *colIndex
	if r.pooled {
		if r.tScratch == nil {
			r.tScratch = &colIndex{}
		}
		idx = r.tScratch
		buildColIndexInto(idx, r.rows, false)
	} else {
		idx = buildColIndex(r.rows, false)
	}
	r.idxBuilds.Add(1)
	r.idxT.Store(idx)
	return idx
}

// members returns what a probe that only asks "is k in the F (onF) or T
// column" reads: the column's index, or — for a pooled temporary not indexed
// on it — a key set of its own, built in one pass with no sort and no index
// build. Keys too spread out for a set (spans) build the index after all.
func (r *Relation) members(onF bool) *colIndex {
	if idx := r.index(onF, false); idx != nil {
		return idx
	}
	if m := r.keySet(onF); m != nil {
		return m
	}
	return r.index(onF, true)
}

// keySet returns a pooled temporary's key set of the F (onF) or T column,
// filled unless current — nil for any other relation, or where the keys span
// too wide for a set. Its words stay with the relation the arena recycles.
func (r *Relation) keySet(onF bool) *colIndex {
	if !r.pooled || r.base != nil {
		return nil
	}
	i := 0
	if !onF {
		i = 1
	}
	m := r.mem[i]
	if m == nil {
		m = &colIndex{built: -1}
		r.mem[i] = m
	}
	if m.built != len(r.rows) {
		if !m.set.fill(r.rows, onF) {
			m.built = -1
			return nil
		}
		m.built = len(r.rows)
	}
	return m
}

// index returns the F (onF) or T column's index, built on first use — or,
// unless build, nil if it has not been.
func (r *Relation) index(onF, build bool) *colIndex {
	switch {
	case onF && build:
		return r.fIndex()
	case build:
		return r.tIndex()
	case onF:
		return r.idxF.Load()
	}
	return r.idxT.Load()
}

// ByF returns the positions of tuples with the given F value, in insertion
// order. When rows were appended after the index snapshot the two parts are
// merged; hot paths use fIndex().lookup directly to avoid the copy.
func (r *Relation) ByF(f int) []int32 {
	snap, over := r.fIndex().lookup(int32(f))
	return mergedPositions(snap, over)
}

// ByT returns the positions of tuples with the given T value.
func (r *Relation) ByT(t int) []int32 {
	snap, over := r.tIndex().lookup(int32(t))
	return mergedPositions(snap, over)
}

func mergedPositions(snap, over []int32) []int32 {
	if len(over) == 0 {
		return snap
	}
	out := make([]int32, 0, len(snap)+len(over))
	out = append(out, snap...)
	return append(out, over...)
}

// TIDs returns the sorted distinct T values.
func (r *Relation) TIDs() []int { return r.idsFrom(math.MinInt32) }

// AnswerIDs returns the answer node IDs of a query result: its sorted
// distinct T values without the virtual root 0 (node IDs are positive), which
// can enter a result via ε but is a context, not a document node.
func (r *Relation) AnswerIDs() []int { return r.idsFrom(1) }

// idsFrom lists the distinct T values not below from, ascending: a walk of a
// set of the T column — a pooled temporary's own (keySet) — or, where the Ts
// span too wide for one, a sort.
func (r *Relation) idsFrom(from int32) []int {
	out := make([]int, 0, len(r.rows))
	if m := r.keySet(false); m != nil {
		return appendIDs(out, &m.set, from)
	}
	var s idSet
	if s.fill(r.rows, false) {
		return appendIDs(out, &s, from)
	}
	for _, w := range r.rows {
		if w.t >= from {
			out = append(out, int(w.t))
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Clone returns a deep copy sharing the interner. Tombstone state and built
// indexes are carried over: the index snapshot arrays are immutable once
// built (non-pooled relations never rebuild in place), so the clone shares
// them and copies only the overflow table its own appends will extend — or
// folds it into a snapshot of its own once it has outgrown its bound.
// Without this, every copy-on-write epoch pays an O(n) index rebuild on the
// first probe after a constant-size update. A stored relation has no pair set
// to copy.
func (r *Relation) Clone() *Relation {
	c := newRelation(r.Name, r.syms)
	c.rows = append([]row(nil), r.rows...)
	c.rowCopies = 1
	if c.stored = r.stored; !r.stored {
		r.ensureSet()
		c.set = r.set.clone()
	}
	if r.nDead > 0 {
		c.dead = append([]bool(nil), r.dead...)
		c.nDead = r.nDead
	}
	if !r.pooled {
		// Pooled relations rebuild indexes into scratch backings in place;
		// those may not be shared across lifetimes.
		if idx := r.idxF.Load(); idx != nil {
			c.idxF.Store(idx.cloneFor(len(r.rows)))
		}
		if idx := r.idxT.Load(); idx != nil {
			c.idxT.Store(idx.cloneFor(len(r.rows)))
		}
	}
	return c
}

// foldIndexes folds an overgrown index overflow into a new snapshot in place:
// for a relation no reader shares — a view's materialization, whose overflow
// every insert it admits would grow, or a stored relation DB.Insert writes.
func (r *Relation) foldIndexes() {
	for _, p := range [2]*atomic.Pointer[colIndex]{&r.idxF, &r.idxT} {
		if idx := p.Load(); idx != nil && idx.overgrown(len(r.rows)) {
			p.Store(idx.folded(len(r.rows)))
		}
	}
}

// reset empties a pooled relation for reuse, retaining every capacity the
// previous request grew: the row array, the pair-set slot array, the path
// map buckets and the index scratch backings. The interner pointer is kept;
// ExecState drops the relation instead when it is rebound to another DB.
func (r *Relation) reset() {
	r.Name = ""
	if r.base != nil {
		// A view's rows alias a shared index; keeping the capacity would let
		// the next request append into it.
		r.rows, r.base = nil, nil
	}
	r.set.clear(r.rows)
	r.rows = r.rows[:0]
	r.idxF.Store(nil)
	r.idxT.Store(nil)
	r.idxBuilds.Store(0)
	for _, m := range r.mem {
		if m != nil {
			m.built = -1
		}
	}
	r.dead, r.nDead = nil, 0
}

func (r *Relation) String() string {
	return fmt.Sprintf("%s(%d tuples)", r.Name, r.Len())
}

// DB is a shredded database: one stored relation per element type plus the
// node catalog used to materialize identity relations and rebuild answers.
type DB struct {
	Rels map[string]*Relation
	// Syms dictionary-encodes every V string stored in the database; all
	// relations of the DB — stored and temporary — share it, so operator
	// pipelines move int32 symbols instead of strings.
	Syms *Interner
	// Labels maps each node an InsertLabeled of this lineage stored, and no
	// later Insert or Delete of the same ID removed, to its type's symbol.
	// No bulk loader writes it: a database that Shred, StreamShred, Load or
	// a Loader built starts with it empty, and a store holds in it only the
	// nodes its live and replayed inserts wrote. Derive shares it, and its
	// writers update it in place. Nothing here reads it — Label reads the
	// node table — and it is kept only for benchmark/wl_write.go, which asks
	// whether the inserts it was acknowledged are stored; ROADMAP item 1(1)
	// deletes it.
	Labels map[int]int32
	// DTDFP is the fingerprint of the DTD the document was shredded
	// against ("" when unknown). The interval fast path compares it with
	// the translated program's fingerprint: translations against a sub-DTD
	// under-approximate the descendant relation, so raw containment is only
	// sound when translation and shredding agree on the DTD.
	DTDFP string
	// nodes holds the node table (nodetable.go): per stored node its parent,
	// value and type — the domain of R_id (§5.1), read through HasNode,
	// Parent, Val, Label, EachNode — and its document-order interval
	// (intervals.go). Atomic because interval rebuilds race readers.
	nodes atomic.Pointer[nodeState]
}

// NewDB returns an empty database.
func NewDB() *DB {
	db := &DB{
		Rels:   map[string]*Relation{},
		Syms:   NewInterner(),
		Labels: map[int]int32{},
	}
	db.nodes.Store(newNodeState(newNodeTable(), false))
	return db
}

// Derive starts the next version of a published database: the result holds
// everything db holds and shares all of it. Its catalog, type and interval
// writes copy the node-table chunks they touch, and a relation must be
// replaced by its Clone before it is written; db itself never changes but for
// the Labels map the two share. An update ends with DeriveInsert, DeriveDelete
// or DeriveText, which carry the parent's descendant indexes over to it.
func (db *DB) Derive() *DB {
	st := db.nodes.Load()
	nd := &DB{Rels: maps.Clone(db.Rels), Syms: db.Syms, Labels: db.Labels, DTDFP: db.DTDFP}
	nd.nodes.Store(newNodeState(st.tab.derive(), st.labelled))
	return nd
}

// Rel returns the stored relation, creating an empty one on first use so
// element types without instances behave as empty relations.
func (db *DB) Rel(name string) *Relation {
	r, ok := db.Rels[name]
	if !ok {
		r = newRelation(name, db.Syms)
		r.stored = true
		db.Rels[name] = r
	}
	return r
}

// Label returns the element type of a stored node, read from its node-table
// row; false for a node without one.
func (db *DB) Label(id int) (string, bool) {
	if sym := db.nodes.Load().tab.typSym(id); sym != 0 {
		return db.Syms.Str(sym), true
	}
	return "", false
}

// sym interns a text value in the database's dictionary.
func (db *DB) sym(v string) int32 {
	if v == "" {
		return 0
	}
	return db.Syms.Intern(v)
}

// Insert adds a tuple to the named stored relation, ignoring a repeated
// (F, T), and records the node in the catalog without an element type. Unlike
// a bulk loader's, its rows may form any graph: the relation's T index is
// probed first.
func (db *DB) Insert(rel string, f, t int, v string) {
	db.insert(rel, f, t, v, 0)
	delete(db.Labels, t)
}

// InsertLabeled is Insert plus the node's element type, enabling XML
// reconstruction of answers.
func (db *DB) InsertLabeled(rel, label string, f, t int, v string) {
	typ := db.Syms.Intern(label)
	db.insert(rel, f, t, v, typ)
	db.Labels[t] = typ
}

func (db *DB) insert(rel string, f, t int, v string, typ int32) {
	w := row{f: int32(f), t: int32(t), v: db.sym(v)}
	db.Rel(rel).addRow(w)
	db.nodes.Load().tab.put(t, w.f, w.v, typ)
}

// Delete tombstones the tuple (f, t) of the named stored relation (see
// Relation.Delete) and removes node t from the catalog, element type and
// interval included.
func (db *DB) Delete(rel string, f, t int) {
	db.Rel(rel).Delete(f, t)
	db.nodes.Load().tab.remove(t)
	delete(db.Labels, t)
}

// UpdateValue replaces the text value of node t, in its tuple (f, t) of the
// named stored relation and in the catalog.
func (db *DB) UpdateValue(rel string, f, t int, v string) {
	sym, tab := db.sym(v), db.nodes.Load().tab
	db.Rel(rel).updateSym(f, t, sym)
	tab.put(t, int32(f), sym, tab.typSym(t))
}

// AppendNode appends the tuple of node t — parent f, text value sym, a symbol
// of the owning DB's Syms — without a probe: the bulk loaders' insert, for a
// node the relation does not hold yet.
func (r *Relation) AppendNode(f, t int, sym int32) {
	r.appendNew(row{f: int32(f), t: int32(t), v: sym})
}

// Loader amortizes per-insert lookups for bulk shredding: it caches the
// relation handle per name beside the symbol of the element type last
// stored in it, interns each value exactly once per tuple through the DB
// interner, and appends every row without a probe — a bulk load mints each
// node, so no T it inserts is stored yet. It writes each node once, as its
// relation's row and its node-table row; the Labels map is left alone.
type Loader struct {
	db   *DB
	rels map[string]*loaderRel
}

// loaderRel is a Loader's cache entry for one relation.
type loaderRel struct {
	r     *Relation
	label string
	sym   int32
}

// NewLoader returns a bulk loader for the database.
func (db *DB) NewLoader() *Loader {
	return &Loader{db: db, rels: map[string]*loaderRel{}}
}

// Insert stores node t, which the database does not hold yet, as
// InsertLabeled does but through the loader's relation cache and without a
// Labels entry: the node-table row carries the type.
func (l *Loader) Insert(rel, label string, f, t int, v string) {
	c, ok := l.rels[rel]
	if !ok {
		c = &loaderRel{r: l.db.Rel(rel)}
		l.rels[rel] = c
	}
	w := row{f: int32(f), t: int32(t), v: l.db.sym(v)}
	c.r.appendNew(w)
	if c.label != label {
		c.label, c.sym = label, l.db.Syms.Intern(label)
	}
	l.db.nodes.Load().tab.put(t, w.f, w.v, c.sym) // "" is symbol 0: no type
}
