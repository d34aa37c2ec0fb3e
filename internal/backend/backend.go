// Package backend defines the storage-neutral execution interface of the
// query service: a Backend owns one shredded document image and executes
// translated relational programs against it. Two implementations ship with
// the repository — the in-process rdb engine (Local, the default) and a
// database/sql backend (sqlbe) that loads the (F, T, V) relations into real
// SQL tables and runs the rendered WITH RECURSIVE text — and the engine,
// server and tools select between them without knowing which is which.
//
// The contract (see DESIGN.md "Backends"):
//
//   - Load installs a complete document image and advances the epoch.
//     Loads are not required to be atomic with respect to concurrent
//     snapshots; callers serialize Load against query traffic or use an
//     implementation documented as snapshot-isolated.
//   - Snapshot pins an immutable view: every Execute through one Snapshot
//     sees a single epoch's data, and Epoch identifies it. Snapshots must
//     remain valid after later Loads (copy-on-write or equivalent) or
//     document that they do not.
//   - Execute honors context cancellation and the typed resource limits of
//     internal/obs: exceeding ExecOptions.Limits returns a *obs.LimitError,
//     and the answer IDs are ascending with the virtual document root
//     (ID 0) removed.
package backend

import (
	"context"
	"errors"

	"xpath2sql/internal/obs"
	"xpath2sql/internal/ra"
	"xpath2sql/internal/rdb"
)

// Errors common to all backends.
var (
	// ErrClosed reports use of a closed Backend or Snapshot.
	ErrClosed = errors.New("backend: closed")
	// ErrNoData reports a Snapshot or Execute before any Load.
	ErrNoData = errors.New("backend: no document loaded")
)

// ExecOptions carries the per-run execution configuration every backend
// must honor.
type ExecOptions struct {
	// Workers is ignored; kept only because benchmark/ (layers.go,
	// wl_docscope.go, wl_watch.go, wl_write.go) sets it; ROADMAP item 1(1)
	// deletes it. Every run is serial.
	Workers int
	// Limits bounds the run; exceeding a bound returns *obs.LimitError.
	Limits obs.Limits
	// Trace, when non-nil, receives one obs.StmtEvent per executed
	// statement.
	Trace *obs.Trace
	// Intervals selects the physical path for descendant steps (see
	// rdb.IntervalMode); the zero value is IntervalAuto. Backends without an
	// interval kernel (e.g. the SQL backend) may ignore it.
	Intervals rdb.IntervalMode
	// Doc, when non-zero, scopes the run to one document: the node ID of its
	// root. The answer is the program evaluated over that document's
	// sub-database alone, at the cost of the document, not of the image
	// (rdb/scope.go). A node that is not a document root of the snapshot
	// returns rdb.ErrNotDocumentRoot. No backend may ignore a scope: one that
	// cannot honor it returns ra.ErrUnsupportedPlan.
	Doc int
}

// Result is one execution's answer: node IDs ascending (virtual root
// dropped) and the work statistics the backend can account for.
type Result struct {
	IDs   []int
	Stats rdb.Stats
	// A sharded backend's account of the scatter, zero from any other:
	// Degraded when some shard did not answer and the read mode allowed
	// serving without it, Failed naming those shards, and Epoch the oldest
	// epoch among the shards that answered — such a backend pins an epoch per
	// execution and shard, not per Snapshot.
	Degraded bool
	Failed   []string
	Epoch    uint64
}

// Snapshot is an immutable view of one loaded epoch.
type Snapshot interface {
	// Epoch identifies the document image this snapshot pins; it is
	// strictly increasing across Loads of one backend.
	Epoch() uint64
	// Execute runs a translated program against the snapshot.
	Execute(ctx context.Context, prog *ra.Program, opts ExecOptions) (*Result, error)
	// Close releases the snapshot.
	Close() error
}

// Backend owns a shredded document image and executes programs against it.
type Backend interface {
	// Name identifies the implementation ("rdb", "sql"), for logs and
	// reports.
	Name() string
	// Load installs a full document image, replacing any previous one and
	// advancing the epoch.
	Load(ctx context.Context, src *rdb.DB) error
	// Snapshot pins the current epoch for execution.
	Snapshot(ctx context.Context) (Snapshot, error)
	// Close releases the backend; subsequent calls return ErrClosed.
	Close() error
}
