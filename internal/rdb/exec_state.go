package rdb

import (
	"sync"

	"xpath2sql/internal/obs"
)

// ExecState is a pooled per-request execution context: an Exec plus the
// arena of scratch structures it allocates while evaluating a program —
// temporary relations (with their pair sets, row arrays and index
// backings), fixpoint delta buffers and dedup scratch. States are acquired
// per request and released when the answer has been extracted; a released
// state keeps every capacity its request grew, so a warm steady-state
// request allocates (almost) nothing.
//
// The contract is strictly request-scoped: every *Relation an arena-backed
// Exec returns is recycled by Release, so callers must copy out whatever
// they keep (IDs, tuples, stats) before releasing. One state serves one
// goroutine at a time; the package-level pool makes acquisition safe from
// any number of concurrent requests.
type ExecState struct {
	exec    Exec
	free    []*Relation // reset pooled temporaries ready for reuse
	owned   []*Relation // temporaries handed out since the last Release
	rowBufs [][]row     // pooled fixpoint delta buffers
	seen    seenIDs
	lastDB  *DB
}

var statePool = sync.Pool{New: func() any { return new(ExecState) }}

// AcquireState returns a pooled execution state bound to db, with lazy
// evaluation and no limits — the same defaults
// as NewExec. A state last used against a different DB drops its R_id, which
// lists that DB's nodes, and keeps its free temporaries only when the new DB
// shares the old one's interner — as every epoch of a store does — since a
// temporary holds symbols of it.
func AcquireState(db *DB) *ExecState {
	s := statePool.Get().(*ExecState)
	if s.lastDB != db {
		if s.lastDB != nil && s.lastDB.Syms != db.Syms {
			s.free = s.free[:0]
		}
		s.exec.ident = nil
		s.lastDB = db
	}
	e := &s.exec
	e.DB = db
	e.Lazy = true
	e.Limits = obs.Limits{}
	e.Stats = Stats{}
	e.IntervalMode = IntervalAuto
	e.Doc = 0
	e.arena = s
	return s
}

// Exec returns the state's executor. Callers may set Limits before running;
// the next AcquireState resets them.
func (s *ExecState) Exec() *Exec { return &s.exec }

// Release resets every arena structure the request used and returns the
// state to the pool. All relations the executor returned become invalid.
func (s *ExecState) Release() {
	for _, r := range s.owned {
		r.reset()
		s.free = append(s.free, r)
	}
	s.owned = s.owned[:0]
	e := &s.exec
	if e.env != nil {
		clear(e.env)
		clear(e.running)
	}
	e.prog = nil
	e.ctx = nil
	e.trace = nil
	e.scope, e.views, e.docID = nil, e.views[:0], nil
	statePool.Put(s)
}

// alloc hands out a pooled temporary relation bound to the current DB's
// interner.
func (s *ExecState) alloc(name string) *Relation {
	var r *Relation
	if n := len(s.free); n > 0 {
		r = s.free[n-1]
		s.free = s.free[:n-1]
		r.Name = name
		r.syms = s.exec.DB.Syms
	} else {
		r = newRelation(name, s.exec.DB.Syms)
		r.pooled = true
	}
	s.owned = append(s.owned, r)
	return r
}

// getRowBuf returns a pooled row buffer (nil without an arena; append grows
// it either way).
func (e *Exec) getRowBuf() []row {
	if e.arena != nil {
		if n := len(e.arena.rowBufs); n > 0 {
			b := e.arena.rowBufs[n-1]
			e.arena.rowBufs = e.arena.rowBufs[:n-1]
			return b[:0]
		}
	}
	return nil
}

// putRowBuf returns a buffer taken with getRowBuf to the arena.
func (e *Exec) putRowBuf(b []row) {
	if e.arena != nil && b != nil {
		e.arena.rowBufs = append(e.arena.rowBufs, b)
	}
}

// seenIDs is a node-ID dedup set: a bit set over the keys' span where it is
// small enough (spans), a map otherwise.
type seenIDs struct {
	set    idSet
	m      map[int32]struct{}
	bitmap bool
}

// has reports whether k is in s.
func (s *seenIDs) has(k int32) bool {
	if s.bitmap {
		return s.set.has(k)
	}
	_, ok := s.m[k]
	return ok
}

// add inserts k and reports whether it was new.
func (s *seenIDs) add(k int32) bool {
	if s.bitmap {
		return s.set.add(k)
	}
	n := len(s.m)
	s.m[k] = struct{}{}
	return len(s.m) > n
}

// idScratch returns an empty node-ID set for a single tight dedup loop over
// n keys in [lo, hi] (colSpan). The arena keeps one; a kernel (ops.go) holds
// it for one loop and never across another kernel call.
func (e *Exec) idScratch(lo, hi int32, n int) *seenIDs {
	var s *seenIDs
	if e.arena != nil {
		s = &e.arena.seen
	} else {
		s = new(seenIDs)
	}
	if s.bitmap = spans(lo, hi, n); s.bitmap {
		s.set.reset(lo, hi)
	} else if s.m == nil {
		s.m = make(map[int32]struct{}, n/4+8)
	} else {
		clear(s.m)
	}
	return s
}
