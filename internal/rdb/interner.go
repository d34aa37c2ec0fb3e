package rdb

import (
	"sync"
	"sync/atomic"
)

// Interner dictionary-encodes strings as dense int32 symbol IDs so relations
// store three machine words per tuple instead of carrying string headers.
// Symbol 0 is always the empty string. One Interner is shared by every
// relation of a DB (stored and temporary), so joins move symbols around
// without ever touching string data; equality on V becomes an int32 compare.
//
// An interner only grows. What releases a symbol is its database's writer:
// once dead symbols — values no stored row or node holds any more — make up a
// quarter of the dictionary, the writer moves its next version onto a compact
// copy of the live ones (DB.ReclaimSymbols, reclaim.go), and the old
// dictionary goes when the last epoch holding it does. An interner's symbols
// never change meaning: a compaction is a new interner.
//
// The interner is safe for concurrent use and, after a database is loaded,
// lock-free on the read path: resolved symbols live in an immutable
// copy-on-write snapshot behind an atomic pointer (the same discipline as
// Relation's index pointers). New strings go into a small mutex-guarded
// dirty map that is promoted into a fresh snapshot once it has either grown
// by a constant fraction of the snapshot or absorbed a constant fraction of
// it in locked lookups — the sync.Map promotion idea, with both triggers
// proportional so that bulk loads and lookup bursts amortize to O(n) total
// promotion work. Steady-state serving, where the working set of strings is
// already interned, touches no lock at all.
type Interner struct {
	// clean is the immutable snapshot: every symbol below len(clean.strs)
	// resolves through it without locking.
	clean atomic.Pointer[internSnap]

	mu      sync.Mutex
	dirty   map[string]int32 // strings interned since the last promotion
	strs    []string         // all strings; clean.strs is a stable prefix
	misses  int              // locked lookups that hit dirty
	inserts int              // strings added since the last promotion
}

// internSnap is one immutable snapshot of the dictionary.
type internSnap struct {
	ids  map[string]int32
	strs []string
}

// NewInterner returns an interner holding only the empty string (symbol 0).
func NewInterner() *Interner { return internerOf([]string{""}) }

// internerOf returns an interner holding strs, symbol i being strs[i]; strs[0]
// must be the empty string, and any other empty string is a number no symbol
// has.
func internerOf(strs []string) *Interner {
	in := new(Interner)
	in.fill(strs)
	return in
}

// fill makes strs the interner's dictionary, as internerOf does: a
// compaction's, or a bulk loader's, built without the promotions of an
// interner that grows under readers.
func (in *Interner) fill(strs []string) {
	ids := make(map[string]int32, len(strs))
	for i, s := range strs {
		if s != "" || i == 0 {
			ids[s] = int32(i)
		}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.strs, in.dirty, in.misses, in.inserts = strs, nil, 0, 0
	in.clean.Store(&internSnap{ids: ids, strs: strs[:len(strs):len(strs)]})
}

// compacted returns an interner of the symbols below n that live marks, live
// of them, and each old symbol's new one, -1 for a dead one. It has size
// numbers, at least live and more than every symbol of keep, a subset of
// live. A live symbol below size keeps its number, and one above it takes
// the lowest number a dead symbol left: so the symbols of keep never move,
// only the ones interned after the dead ones below them do, and what a
// database writes to follow the move is where they are. A number left over
// holds no symbol.
func (in *Interner) compacted(marks, keep symMarks, n, live int) (*Interner, []int32) {
	in.mu.Lock()
	strs := in.strs[:n] // an append-only prefix: its strings are never rewritten
	in.mu.Unlock()
	size := live
	for id := size; id < n; id++ {
		if keep.has(int32(id)) {
			size = id + 1
		}
	}
	out := make([]string, size)
	to := make([]int32, n)
	hole := 0
	for id := range n {
		switch {
		case !marks.has(int32(id)):
			to[id] = -1
			continue
		case id >= size:
			for marks.has(int32(hole)) {
				hole++
			}
			to[id] = int32(hole)
			hole++
		default:
			to[id] = int32(id)
		}
		out[to[id]] = strs[id]
	}
	return internerOf(out), to
}

// Intern returns the symbol for s, assigning a new one on first sight.
func (in *Interner) Intern(s string) int32 {
	if id, ok := in.clean.Load().ids[s]; ok {
		return id
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	// Re-check under the lock: a promotion may have landed s in clean.
	if id, ok := in.clean.Load().ids[s]; ok {
		return id
	}
	if id, ok := in.dirty[s]; ok {
		in.missLocked()
		return id
	}
	id := int32(len(in.strs))
	in.strs = append(in.strs, s)
	if in.dirty == nil {
		in.dirty = map[string]int32{}
	}
	in.dirty[s] = id
	in.inserts++
	if in.inserts >= len(in.clean.Load().ids)/4+16 {
		in.promoteLocked()
	}
	return id
}

// missLocked counts a locked lookup that had to fall through to the dirty
// map and promotes once enough of them accumulate, so a burst of new
// strings followed by a read-heavy phase self-heals to lock-free. A
// promotion copies the whole dictionary, so the count it waits for grows
// with the dictionary: each miss pays for a bounded share of the copy.
func (in *Interner) missLocked() {
	in.misses++
	if in.misses >= len(in.clean.Load().ids)/missShare+64 {
		in.promoteLocked()
	}
}

// missShare is the dictionary share a promotion on misses waits for.
const missShare = 8

// promoteLocked publishes a fresh immutable snapshot covering every interned
// string. Callers hold mu.
func (in *Interner) promoteLocked() {
	old := in.clean.Load()
	ids := make(map[string]int32, len(old.ids)+len(in.dirty))
	for s, id := range old.ids {
		ids[s] = id
	}
	for s, id := range in.dirty {
		ids[s] = id
	}
	in.clean.Store(&internSnap{ids: ids, strs: in.strs[:len(in.strs):len(in.strs)]})
	in.dirty = nil
	in.misses = 0
	in.inserts = 0
}

// Lookup returns the symbol for s without assigning one. A miss means no
// stored tuple carries s, so a selection on s is empty.
func (in *Interner) Lookup(s string) (int32, bool) {
	if id, ok := in.clean.Load().ids[s]; ok {
		return id, true
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if id, ok := in.clean.Load().ids[s]; ok {
		return id, true
	}
	id, ok := in.dirty[s]
	if ok {
		in.missLocked()
	}
	return id, ok
}

// Str resolves a symbol back to its string.
func (in *Interner) Str(id int32) string {
	if snap := in.clean.Load(); int(id) < len(snap.strs) {
		return snap.strs[id]
	}
	in.mu.Lock()
	s := in.strs[id]
	in.mu.Unlock()
	return s
}

// Len returns the number of distinct strings interned.
func (in *Interner) Len() int {
	in.mu.Lock()
	n := len(in.strs)
	in.mu.Unlock()
	return n
}
