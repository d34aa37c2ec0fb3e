// Package sqlbe is the database/sql execution backend: it shreds the
// (F, T, V) edge relations into real SQL tables and runs the rendered
// WITH RECURSIVE statement sequence end-to-end — the paper's actual target
// deployment, where the translated query ships to an RDBMS.
//
// The package never imports a driver. Callers open their own *sql.DB (or
// pass a driver name and DSN to Open) after registering a driver in their
// main package; the in-repo hermetic driver internal/backend/fakedb serves
// tests and CI. Per the repository's layering rule, only cmd/ binaries and
// test files link drivers in.
//
// Execution pins one connection for a whole run: temporary tables are
// per-connection state on real engines, so the statement sequence must not
// hop across a pool. Each run renders with a unique temp-table prefix, so
// concurrent executions over one database never collide even on engines
// (like fakedb) whose temp tables share a namespace.
package sqlbe

import (
	"context"
	"database/sql"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xpath2sql/internal/backend"
	"xpath2sql/internal/obs"
	"xpath2sql/internal/ra"
	"xpath2sql/internal/rdb"
)

// ErrExecDialect reports an attempt to execute a dialect this backend can
// only render, not run (Oracle's CONNECT BY form is print-only).
var ErrExecDialect = errors.New("sqlbe: only the DB2 / SQL'99 WITH RECURSIVE dialect is executable")

// Options configures the backend.
type Options struct {
	// Dialect of the rendered programs; must be ra.DialectDB2 (the
	// executable WITH RECURSIVE form). The zero value is DB2.
	Dialect ra.Dialect
	// NodesTable names the (ID, VAL) node catalog ("all_nodes" when empty).
	NodesTable string
	// InsertBatch is the number of rows per multi-row INSERT during Load
	// (default 200).
	InsertBatch int
}

func (o Options) withDefaults() Options {
	if o.NodesTable == "" {
		o.NodesTable = "all_nodes"
	}
	if o.InsertBatch <= 0 {
		o.InsertBatch = 200
	}
	return o
}

// Backend implements backend.Backend over a *sql.DB.
type Backend struct {
	db   *sql.DB
	opts Options

	mu     sync.Mutex
	epoch  uint64
	tables []string // tables created by the last Load, for the next Load's cleanup
	closed bool
	runSeq atomic.Uint64
}

// New wraps an already-open database handle. The handle is adopted: Close
// closes it.
func New(db *sql.DB, opts Options) (*Backend, error) {
	opts = opts.withDefaults()
	if !opts.Dialect.Valid() {
		return nil, fmt.Errorf("%w: Dialect(%d)", ra.ErrDialect, int(opts.Dialect))
	}
	if opts.Dialect != ra.DialectDB2 {
		return nil, fmt.Errorf("%w (got %s)", ErrExecDialect, opts.Dialect)
	}
	return &Backend{db: db, opts: opts}, nil
}

// Open connects via database/sql and wraps the handle. The driver must have
// been registered by the caller's main package.
func Open(ctx context.Context, driverName, dsn string, opts Options) (*Backend, error) {
	db, err := sql.Open(driverName, dsn)
	if err != nil {
		return nil, fmt.Errorf("sqlbe: open %s: %w", driverName, err)
	}
	be, err := New(db, opts)
	if err != nil {
		db.Close()
		return nil, err
	}
	return be, nil
}

// Name implements backend.Backend.
func (b *Backend) Name() string { return "sql" }

// Load implements backend.Backend: it drops the previous image's tables,
// creates one (F, T, V) table per element-type relation plus the node
// catalog, and bulk-inserts every tuple with fully parameterized INSERTs —
// values never appear in SQL text, so hostile content cannot break out of
// its column. The epoch advances only after a complete load.
//
// Load is not snapshot-isolated: it rewrites tables in place, so callers
// serialize Load against running queries (the serving layers already do).
func (b *Backend) Load(ctx context.Context, src *rdb.DB) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return backend.ErrClosed
	}
	for _, t := range b.tables {
		if _, err := b.db.ExecContext(ctx, ra.DropTableSQL(t)); err != nil {
			return fmt.Errorf("sqlbe: drop %s: %w", t, err)
		}
	}
	b.tables = nil

	names := make([]string, 0, len(src.Rels))
	for name := range src.Rels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := b.db.ExecContext(ctx, ra.DropTableSQL(name)); err != nil {
			return fmt.Errorf("sqlbe: drop %s: %w", name, err)
		}
		if _, err := b.db.ExecContext(ctx, ra.EdgeTableDDL(name)); err != nil {
			return fmt.Errorf("sqlbe: create %s: %w", name, err)
		}
		b.tables = append(b.tables, name)
		var rows [][]any
		for _, t := range src.Rels[name].Tuples() {
			rows = append(rows, []any{ra.EncodeNodeID(t.F), ra.EncodeNodeID(t.T), t.V})
		}
		if err := b.insertRows(ctx, name, []string{"F", "T", "V"}, rows); err != nil {
			return err
		}
	}

	nodes := b.opts.NodesTable
	if _, err := b.db.ExecContext(ctx, ra.DropTableSQL(nodes)); err != nil {
		return fmt.Errorf("sqlbe: drop %s: %w", nodes, err)
	}
	if _, err := b.db.ExecContext(ctx, ra.NodesTableDDL(nodes)); err != nil {
		return fmt.Errorf("sqlbe: create %s: %w", nodes, err)
	}
	b.tables = append(b.tables, nodes)
	// The catalog mirrors rdb's R_id: every stored node plus the virtual
	// document root, so ε holds at the top-level context.
	nodeRows := [][]any{{ra.RootMarker, ""}}
	src.EachNode(func(id int) {
		nodeRows = append(nodeRows, []any{ra.EncodeNodeID(id), src.Val(id)})
	})
	if err := b.insertRows(ctx, nodes, []string{"ID", "VAL"}, nodeRows); err != nil {
		return err
	}
	b.epoch++
	return nil
}

func (b *Backend) insertRows(ctx context.Context, table string, cols []string, rows [][]any) error {
	for len(rows) > 0 {
		n := b.opts.InsertBatch
		if n > len(rows) {
			n = len(rows)
		}
		args := make([]any, 0, n*len(cols))
		for _, r := range rows[:n] {
			args = append(args, r...)
		}
		if _, err := b.db.ExecContext(ctx, ra.InsertSQL(table, cols, n), args...); err != nil {
			return fmt.Errorf("sqlbe: insert into %s: %w", table, err)
		}
		rows = rows[n:]
	}
	return nil
}

// Snapshot implements backend.Backend. The snapshot pins the epoch label;
// isolation from subsequent Loads is the serving layer's responsibility
// (see Load).
func (b *Backend) Snapshot(_ context.Context) (backend.Snapshot, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, backend.ErrClosed
	}
	if b.epoch == 0 {
		return nil, backend.ErrNoData
	}
	return &snap{b: b, epoch: b.epoch}, nil
}

// Close implements backend.Backend.
func (b *Backend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return backend.ErrClosed
	}
	b.closed = true
	return b.db.Close()
}

type snap struct {
	b     *Backend
	epoch uint64
}

func (s *snap) Epoch() uint64 { return s.epoch }
func (s *snap) Close() error  { return nil }

// Execute renders the program and runs it statement by statement on one
// pinned connection. Limits.Timeout is enforced as a wall-clock bound with
// the same typed *obs.LimitError as the in-process engine; MaxTuples is
// checked against the materialized statement cardinalities the database
// reports; MaxLFPIters is pushed into the database as a session recursion
// guard (SET MAX_RECURSIVE_ITERATIONS, installed on the pinned connection
// before the statement sequence) and a database error naming that setting
// comes back as the engine's typed *obs.LimitError (DESIGN.md "Backends"
// records this contract).
func (s *snap) Execute(ctx context.Context, prog *ra.Program, opts backend.ExecOptions) (*backend.Result, error) {
	b := s.b
	b.mu.Lock()
	closed := b.closed
	b.mu.Unlock()
	if closed {
		return nil, backend.ErrClosed
	}
	if opts.Doc != 0 {
		// The SQL image has no interval columns, so the only conjunct it could
		// carry (F = '_' AND T = <root> on root selections) scopes root-anchored
		// plans and silently leaves //x unscoped. Refuse rather than answer
		// from the whole image.
		return nil, fmt.Errorf("sqlbe: document scope %d: %w", opts.Doc, ra.ErrUnsupportedPlan)
	}
	start := time.Now()
	deadline := time.Duration(0)
	if opts.Limits.Timeout > 0 {
		deadline = opts.Limits.Timeout
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	overTime := func() error {
		if deadline > 0 && time.Since(start) > deadline {
			return &obs.LimitError{Kind: obs.LimitTimeout, Limit: int64(deadline), Actual: int64(time.Since(start))}
		}
		return nil
	}

	prefix := fmt.Sprintf("x%d_%d_", s.epoch, b.runSeq.Add(1))
	rendered, err := prog.RenderSQL(ra.SQLRenderOptions{
		Dialect:     b.opts.Dialect,
		NodesTable:  b.opts.NodesTable,
		TempPrefix:  prefix,
		MaxRecIters: opts.Limits.MaxLFPIters,
	})
	if err != nil {
		return nil, fmt.Errorf("sqlbe: render: %w", err)
	}

	conn, err := b.db.Conn(ctx)
	if err != nil {
		if terr := overTime(); terr != nil {
			return nil, terr
		}
		return nil, fmt.Errorf("sqlbe: acquire connection: %w", err)
	}
	defer conn.Close()
	var created []string
	defer func() {
		// Best-effort cleanup on a fresh context: the run's context may
		// already be done.
		dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		for i := len(created) - 1; i >= 0; i-- {
			conn.ExecContext(dctx, ra.DropTableSQL(created[i]))
		}
		// Session settings are connection state; restore the defaults so the
		// pooled connection does not carry this run's recursion guard.
		for _, sess := range rendered.SessionReset {
			conn.ExecContext(dctx, sess)
		}
	}()

	for _, sess := range rendered.Session {
		if _, err := conn.ExecContext(ctx, sess); err != nil {
			if terr := overTime(); terr != nil {
				return nil, terr
			}
			return nil, fmt.Errorf("sqlbe: session setup %q: %w", sess, err)
		}
	}

	var stats rdb.Stats
	for _, st := range rendered.Stmts {
		if err := overTime(); err != nil {
			return nil, err
		}
		stStart := time.Now()
		res, err := conn.ExecContext(ctx, st.SQL)
		if err != nil {
			if terr := overTime(); terr != nil {
				return nil, terr
			}
			if lerr := recLimitError(err, opts.Limits.MaxLFPIters, st.Table); lerr != nil {
				return nil, lerr
			}
			return nil, fmt.Errorf("sqlbe: %s: %w", st.Table, err)
		}
		created = append(created, st.Table)
		stats.StmtsRun++
		out := 0
		if n, err := res.RowsAffected(); err == nil && n > 0 {
			out = int(n)
			stats.TuplesOut += out
		}
		if opts.Limits.MaxTuples > 0 && stats.TuplesOut > opts.Limits.MaxTuples {
			return nil, &obs.LimitError{Kind: obs.LimitTuples, Stmt: st.Table,
				Limit: int64(opts.Limits.MaxTuples), Actual: int64(stats.TuplesOut)}
		}
		if opts.Trace != nil {
			// Report the program's statement name (prefix stripped), so
			// Explain can line events up with the relational plan.
			opts.Trace.Add(obs.StmtEvent{Stmt: strings.TrimPrefix(st.Table, prefix),
				Op: "sql", Out: out, Wall: time.Since(stStart)})
		}
	}

	if err := overTime(); err != nil {
		return nil, err
	}
	rows, err := conn.QueryContext(ctx, rendered.ResultQuery)
	if err != nil {
		if terr := overTime(); terr != nil {
			return nil, terr
		}
		return nil, fmt.Errorf("sqlbe: result query: %w", err)
	}
	defer rows.Close()
	var ids []int
	for rows.Next() {
		var t string
		if err := rows.Scan(&t); err != nil {
			return nil, fmt.Errorf("sqlbe: scan answer: %w", err)
		}
		id, err := ra.DecodeNodeID(t)
		if err != nil {
			return nil, fmt.Errorf("sqlbe: answer %q is not a node ID: %w", t, err)
		}
		if id == 0 {
			// The virtual root is a context, never an answer.
			continue
		}
		ids = append(ids, id)
	}
	if err := rows.Err(); err != nil {
		return nil, fmt.Errorf("sqlbe: result rows: %w", err)
	}
	sort.Ints(ids)
	return &backend.Result{IDs: ids, Stats: stats}, nil
}

// recLimitError recognizes a database error raised by the pushed-down
// recursion guard (any message naming MAX_RECURSIVE_ITERATIONS) and maps it
// to the engine's typed limit error, so callers see one error shape whether
// the fixpoint cap tripped in-process or inside the database.
func recLimitError(err error, limit int, stmt string) error {
	if limit <= 0 || !strings.Contains(err.Error(), "MAX_RECURSIVE_ITERATIONS") {
		return nil
	}
	return &obs.LimitError{Kind: obs.LimitLFPIters, Stmt: stmt, Limit: int64(limit), Actual: int64(limit) + 1}
}
