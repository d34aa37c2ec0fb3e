package backend

import (
	"context"
	"sync"

	"xpath2sql/internal/ra"
	"xpath2sql/internal/rdb"
)

// Local is the default in-process backend: the rdb engine running
// directly over an *rdb.DB. Load replaces the whole database pointer, so
// snapshots taken before a Load keep reading the image they pinned — the
// same pointer-swap isolation the store layer relies on.
type Local struct {
	mu     sync.RWMutex
	db     *rdb.DB
	epoch  uint64
	closed bool
}

// NewLocalDB returns a Local backend pre-loaded with db at epoch 1.
func NewLocalDB(db *rdb.DB) *Local {
	return &Local{db: db, epoch: 1}
}

// Name implements Backend.
func (l *Local) Name() string { return "rdb" }

// Load implements Backend: the image is adopted as-is (no copy), so the
// caller must not mutate src afterwards.
func (l *Local) Load(_ context.Context, src *rdb.DB) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.db = src
	l.epoch++
	return nil
}

// Snapshot implements Backend.
func (l *Local) Snapshot(_ context.Context) (Snapshot, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.closed {
		return nil, ErrClosed
	}
	if l.db == nil {
		return nil, ErrNoData
	}
	return &localSnap{db: l.db, epoch: l.epoch}, nil
}

// Close implements Backend.
func (l *Local) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.closed = true
	l.db = nil
	return nil
}

// AdoptDB wraps an externally pinned database — a store view's epoch, a
// freshly shredded document — as a zero-cost Snapshot, so code holding an
// *rdb.DB runs through the same execution path as backend-selected code.
// The epoch is the caller's to interpret (0 when unknown).
func AdoptDB(db *rdb.DB, epoch uint64) Snapshot {
	return &localSnap{db: db, epoch: epoch}
}

type localSnap struct {
	db    *rdb.DB
	epoch uint64
}

func (s *localSnap) Epoch() uint64 { return s.epoch }

func (s *localSnap) Close() error { return nil }

// Execute runs the program on the rdb engine: statements one after another
// on one pooled rdb.ExecState, so a warm request reuses the previous request's
// relations, sets and index backings. The answer IDs are copied out before the
// state is released.
func (s *localSnap) Execute(ctx context.Context, prog *ra.Program, opts ExecOptions) (*Result, error) {
	st := rdb.AcquireState(s.db)
	defer st.Release()
	ex := st.Exec()
	ex.Limits = opts.Limits
	ex.IntervalMode = opts.Intervals
	ex.Doc = opts.Doc
	rel, err := ex.RunCtx(ctx, prog, opts.Trace)
	if err != nil {
		return nil, err
	}
	return &Result{IDs: rel.AnswerIDs(), Stats: ex.Stats}, nil
}
