package rdb

import (
	"sync"
	"sync/atomic"
)

// Interner dictionary-encodes strings as int32 symbol IDs so relations
// store three machine words per tuple instead of carrying string headers.
// Symbol 0 is always the empty string. One Interner is shared by every
// relation of a DB (stored and temporary), so joins move symbols around
// without ever touching string data; equality on V becomes an int32 compare.
//
// A symbol's number is decided once, when its string is interned, and never
// changes. What releases a symbol is its database's writer: once dead
// symbols — values no stored row or node holds any more — make up a quarter
// of the strings held, the writer moves its next version onto a copy of the
// dictionary without them (DB.ReclaimSymbols, reclaim.go). The copy keeps
// every live string at its number; a dead one's number becomes free, holding
// "" and no map entry, and the next strings interned take the free numbers
// before the dictionary grows. The old dictionary goes when the last epoch
// holding it does. An interner's symbols never change meaning, and a
// compaction's copy gives every symbol it keeps the meaning it had.
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
	strs    []string         // all strings; clean.strs is a prefix of it
	misses  int              // locked lookups that hit dirty
	inserts int              // strings added since the last promotion
	// free lists the numbers below len(strs) that hold no symbol, the
	// highest first: a compaction's holes, taken lowest first by Intern.
	free []int32
	// line is shared by an interner NewInterner made and every compaction
	// copied from it, directly or through other copies. A copy keeps the
	// string of every symbol that was live in its source when the copy was
	// made; a number it freed may since hold another string. So two
	// interners of one line agree only on the symbols live at the
	// compactions between them, and the line alone does not say which.
	line uint64
}

// internSnap is one immutable snapshot of the dictionary.
type internSnap struct {
	ids  map[string]int32
	strs []string
}

// lines numbers the interners NewInterner makes.
var lines atomic.Uint64

// NewInterner returns an interner holding only the empty string (symbol 0).
func NewInterner() *Interner {
	in := new(Interner)
	in.fill([]string{""}, nil)
	in.line = lines.Add(1)
	return in
}

// fill makes strs the interner's dictionary, symbol i being strs[i]: a
// compaction's, or a bulk loader's, built without the promotions of an
// interner that grows under readers. strs[0] must be the empty string, and
// the other empty strings are the free numbers, listed in free.
func (in *Interner) fill(strs []string, free []int32) {
	ids := make(map[string]int32, len(strs)-len(free))
	for i, s := range strs {
		if s != "" || i == 0 {
			ids[s] = int32(i)
		}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.strs, in.free, in.dirty, in.misses, in.inserts = strs, free, nil, 0, 0
	in.clean.Store(&internSnap{ids: ids, strs: strs[:len(strs):len(strs)]})
}

// compacted returns a copy of the interner's symbols below n that live marks,
// each at its number. The copy ends at the highest of them, and every number
// below it that marks does not hold is free.
func (in *Interner) compacted(marks symMarks, n int) *Interner {
	in.mu.Lock()
	strs := in.strs[:n] // only a free number's string is written after this
	in.mu.Unlock()
	hi := n - 1
	for !marks.has(int32(hi)) { // symbol 0 is always marked
		hi--
	}
	kept := make([]string, hi+1)
	var free []int32
	for id := hi; id > 0; id-- {
		if marks.has(int32(id)) {
			kept[id] = strs[id]
		} else {
			free = append(free, int32(id))
		}
	}
	out := &Interner{line: in.line}
	out.fill(kept, free)
	return out
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
	// Every free number is refilled before the array grows, so a refill
	// always writes the array the clean snapshot reads (a compaction's copy
	// is clean whole): Str finds the string there. No reader reads the slot
	// before it learns the number, which only this write hands out.
	id := int32(len(in.strs))
	if k := len(in.free); k > 0 {
		id, in.free = in.free[k-1], in.free[:k-1]
		in.strs[id] = s
	} else {
		in.strs = append(in.strs, s)
	}
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

// Len returns the numbers the dictionary spans: one past its highest
// symbol, free numbers included.
func (in *Interner) Len() int {
	in.mu.Lock()
	n := len(in.strs)
	in.mu.Unlock()
	return n
}

// Held returns the strings the dictionary holds, the empty string's symbol
// 0 included: Len less its free numbers.
func (in *Interner) Held() int {
	in.mu.Lock()
	n := len(in.strs) - len(in.free)
	in.mu.Unlock()
	return n
}
