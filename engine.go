package xpath2sql

import (
	"context"

	"xpath2sql/internal/backend"
	"xpath2sql/internal/core"
	"xpath2sql/internal/obs"
	"xpath2sql/internal/plancache"
	"xpath2sql/internal/rdb"
	"xpath2sql/internal/xpath"
)

// IntervalMode selects the physical path for descendant steps: the
// document-order interval kernel, the least-fixpoint plan, or automatic
// selection (see internal/rdb).
type IntervalMode = rdb.IntervalMode

// The interval modes (rdb re-exports).
const (
	// IntervalAuto (the default) uses the interval kernel whenever the
	// database carries a valid encoding stamped with the program's DTD
	// fingerprint, falling back to the fixpoint plan otherwise.
	IntervalAuto = rdb.IntervalAuto
	// IntervalOff runs every descendant step through the pure fixpoint plan
	// — the benchmark baseline, and the mode for tests that exercise
	// fixpoint behavior (iteration limits, Φ statistics).
	IntervalOff = rdb.IntervalOff
	// IntervalForce errors when a descendant scan cannot use the kernel;
	// differential tests use it to prove the kernel actually ran.
	IntervalForce = rdb.IntervalForce
)

// Re-exported observability types (internal/obs).
type (
	// Limits bounds the resources an execution may consume; the zero value
	// is unlimited.
	Limits = obs.Limits
	// LimitError is the typed error returned when a limit is exceeded; it
	// is matchable with errors.As and unwraps to ErrLimit.
	LimitError = obs.LimitError
	// Trace is the per-statement execution trace of one run.
	Trace = obs.Trace
	// StmtEvent is one statement's observation within a Trace.
	StmtEvent = obs.StmtEvent
	// CacheStats reports the engine's plan-cache counters: hits, misses,
	// singleflight-coalesced lookups, evictions and resident entries.
	CacheStats = obs.CacheStats
	// EngineStats is the engine's aggregate stats surface (Engine.Stats):
	// plan-cache counters, configured parallelism and backend kind.
	EngineStats = obs.EngineStats
)

// ErrLimit is the sentinel every *LimitError unwraps to.
var ErrLimit = obs.ErrLimit

// DefaultCacheSize is the plan-cache capacity an Engine is built with when
// WithCacheSize is not given: enough for a large query-template workload
// while bounding memory to roughly that many translated programs.
const DefaultCacheSize = 1024

// Engine is the context-first entry point: a DTD plus a fixed configuration
// — strategy, SQL dialect, resource limits, parallelism, plan-cache size —
// built once with functional options and reused across queries:
//
//	eng := xpath2sql.New(d,
//	        xpath2sql.WithStrategy(xpath2sql.StrategyCycleEX),
//	        xpath2sql.WithLimits(xpath2sql.Limits{MaxLFPIters: 10_000}))
//	p, err := eng.Prepare(ctx, q)
//	ans, err := p.ExecuteOn(ctx, xpath2sql.NewLocalBackend(db))
//
// Translation is pure in (DTD, query, options), so the engine memoizes it:
// Prepare and Translate resolve through a bounded, sharded LRU plan cache
// keyed by (DTD fingerprint, canonical query, options fingerprint), with
// singleflight deduplication — N concurrent misses for the same query run
// exactly one translation. CacheStats reports its effectiveness.
//
// Engines are immutable after New and safe for concurrent use.
type Engine struct {
	dtd       *DTD
	opts      Options
	dialect   Dialect
	limits    Limits
	cacheSize int
	cache     *plancache.Cache
	schema    *core.Schema // what translation derives from the DTD alone
	keyPrefix string       // the plan-cache key up to the query: DTD and options fingerprints
	backend   Backend
	intervals IntervalMode
}

// EngineOption configures an Engine at construction.
type EngineOption func(*Engine)

// New builds an Engine for the DTD with the recommended defaults (the
// CycleEX strategy, DB2 dialect, no limits, a plan cache
// of DefaultCacheSize entries), then applies the options. The DTD is
// analyzed once here — validity, graph, component structure, fingerprint —
// and must not be mutated afterwards.
func New(d *DTD, options ...EngineOption) *Engine {
	e := &Engine{dtd: d, opts: DefaultOptions(), dialect: DialectDB2, cacheSize: DefaultCacheSize}
	for _, o := range options {
		o(e)
	}
	e.schema = core.NewSchema(d)
	// Options are frozen from here on, so their fingerprint is taken once.
	e.keyPrefix = e.schema.Fingerprint() + "\x1f" + core.FingerprintOptions(e.opts) + "\x1f"
	if e.cacheSize > 0 {
		e.cache = plancache.New(e.cacheSize)
	}
	return e
}

// WithStrategy selects the translation strategy (X, E or R).
func WithStrategy(s Strategy) EngineOption {
	return func(e *Engine) { e.opts.Strategy = s }
}

// WithDialect selects the SQL dialect Translation.SQL defaults to.
func WithDialect(d Dialect) EngineOption {
	return func(e *Engine) { e.dialect = d }
}

// WithLimits bounds every execution started through this engine's
// translations; exceeding a bound returns a *LimitError.
func WithLimits(l Limits) EngineOption {
	return func(e *Engine) { e.limits = l }
}

// WithParallelism is ignored; kept only because benchmark/layers.go sets it;
// ROADMAP item 1(1) deletes it. Every execution runs on one goroutine.
func WithParallelism(workers int) EngineOption {
	return func(*Engine) {}
}

// WithCacheSize bounds the plan cache to n translated programs (LRU
// eviction past the bound). n <= 0 disables caching entirely: every
// Prepare/Translate runs a fresh translation and CacheStats stays zero.
func WithCacheSize(n int) EngineOption {
	return func(e *Engine) { e.cacheSize = n }
}

// WithOptions replaces the full translation options (strategy, SQL rendering
// options, nested-recursion form) — the escape hatch for configurations the
// narrower options don't cover.
func WithOptions(opts Options) EngineOption {
	return func(e *Engine) { e.opts = opts }
}

// WithIntervalMode pins the physical path for descendant steps on every
// execution started through this engine's translations. The default,
// IntervalAuto, uses the document-order interval kernel when the database
// carries a matching encoding; IntervalOff forces the fixpoint plan (the
// baseline for benchmarks and for tests of fixpoint limits); IntervalForce
// errors when the kernel cannot run.
func WithIntervalMode(m IntervalMode) EngineOption {
	return func(e *Engine) { e.intervals = m }
}

// WithBackend makes every translation built by this engine execute through
// the given backend (Translation.Execute / Prepared.Execute). The backend is
// the only way an Engine selects an execution target; it is not closed by
// the engine — the caller owns its lifecycle.
func WithBackend(b Backend) EngineOption {
	return func(e *Engine) { e.backend = b }
}

// translate resolves a query to its translated plan through the plan cache
// (when enabled): cache hits and coalesced waits skip cycle enumeration and
// variable elimination entirely; misses translate once and publish the
// immutable result for every later caller.
func (e *Engine) translate(ctx context.Context, q Query) (*core.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// One print of the query is the cache key's tail and, on a miss, the
	// translation's query text and sub-path classes.
	pq := xpath.Print(q)
	if e.cache == nil {
		return e.schema.TranslatePrinted(q, pq, e.opts)
	}
	v, err := e.cache.Do(ctx, e.keyPrefix+pq.Text, func() (any, error) {
		return e.schema.TranslatePrinted(q, pq, e.opts)
	})
	if err != nil {
		return nil, err
	}
	return v.(*core.Result), nil
}

// planKey is core.PlanKey(fingerprint, q, options) for the engine's DTD and
// options, with the query's canonical form the only part computed per call.
func (e *Engine) planKey(q Query) string { return e.keyPrefix + core.CanonicalQuery(q) }

// Translate rewrites an XPath query over the engine's DTD into a sequence of
// relational queries, resolving through the plan cache. The returned
// Translation carries the engine's limits and parallelism into every
// execution.
func (e *Engine) Translate(ctx context.Context, q Query) (*Translation, error) {
	res, err := e.translate(ctx, q)
	if err != nil {
		return nil, err
	}
	return &Translation{res: res, limits: e.limits, cache: e.cache, backend: e.backend, intervals: e.intervals}, nil
}

// TranslateString parses and translates in one step.
func (e *Engine) TranslateString(ctx context.Context, query string) (*Translation, error) {
	q, err := ParseQuery(query)
	if err != nil {
		return nil, err
	}
	return e.Translate(ctx, q)
}

// Prepared is an immutable, concurrency-safe prepared query: a Translation
// resolved through the engine's plan cache, intended to be built once and
// shared across goroutines, with every execution keeping its own
// per-run state (trace, statistics) in the Answer it returns. Two Prepared
// values for semantically identical (query, options) pairs on one engine
// alias the same underlying plan.
type Prepared struct {
	Translation
}

// Prepare resolves the query to an immutable prepared plan through the plan
// cache: the compile-once half of the compile-once/execute-many serving
// model. Preparing the same (canonicalized) query again is a cache hit, and
// concurrent first-time preparations are deduplicated to one translation.
func (e *Engine) Prepare(ctx context.Context, q Query) (*Prepared, error) {
	res, err := e.translate(ctx, q)
	if err != nil {
		return nil, err
	}
	return &Prepared{Translation{res: res, limits: e.limits, cache: e.cache, backend: e.backend, intervals: e.intervals}}, nil
}

// PrepareString parses and prepares in one step. The cache key is derived
// from the parsed query's canonical form, so spelling variants of one query
// share a single cached plan.
func (e *Engine) PrepareString(ctx context.Context, query string) (*Prepared, error) {
	q, err := ParseQuery(query)
	if err != nil {
		return nil, err
	}
	return e.Prepare(ctx, q)
}

// CacheStats snapshots the plan cache's counters; all zero when the cache
// is disabled (WithCacheSize(0)).
func (e *Engine) CacheStats() CacheStats {
	if e.cache == nil {
		return CacheStats{}
	}
	return e.cache.Stats()
}

// Stats is the engine's one aggregate stats surface: the plan-cache
// counters plus the static execution configuration (the backend kind), so
// callers — the /metrics endpoint in particular — need not stitch accessors
// together themselves.
func (e *Engine) Stats() EngineStats {
	s := EngineStats{
		Cache:   e.CacheStats(),
		Backend: "local",
	}
	if e.backend != nil {
		s.Backend = e.backend.Name()
	}
	return s
}

// DTD returns the engine's DTD.
func (e *Engine) DTD() *DTD { return e.dtd }

// Limits returns the engine's configured execution limits (zero value =
// unlimited). Serving layers use it to report configuration and to decide
// how request deadlines compose with engine bounds.
func (e *Engine) Limits() Limits { return e.limits }

// Answer is the result of one execution: the answer node IDs
// (ascending), the aggregate execution statistics, and the per-statement
// trace whose totals agree with Stats. The annotated plan rendering travels
// with the Answer (Explain), so concurrent executions of one shared
// Translation or Prepared never contend on shared mutable state.
type Answer struct {
	IDs   []int
	Stats ExecStats
	Trace *Trace
	// Epoch identifies the document version the answer was read at (0 when
	// the backend does not know): the snapshot's, or — from a sharded backend
	// — the oldest among the shards that answered. Degraded reports that some
	// shard did not answer and the read mode allowed serving without it;
	// FailedShards names them.
	Epoch        uint64
	Degraded     bool
	FailedShards []string

	prog  *Program
	cache *CacheStats
}

// Explain renders the executed plan EXPLAIN ANALYZE style: one line per RA
// statement annotated with the observed input/output cardinalities, tuples
// produced, fixpoint iteration counts and wall time of this run. Statements
// the lazy evaluation skipped are marked "not run". When the translation
// came through a caching Engine, the footer carries the plan-cache counters
// as of this execution.
func (a *Answer) Explain() string {
	if a.prog == nil {
		return "(no plan recorded)\n"
	}
	return obs.Explain(a.prog, a.Trace, a.cache)
}

// InDocument returns a copy of the translation whose executions are scoped
// to the document rooted at node ID root: the answer is the query evaluated
// over that document alone, and the run reads only that document's share of
// the database, however many documents it holds. The plan is shared — scope is
// a run parameter, not part of the translation. A root that is not a document
// root of the executed snapshot returns ErrNotDocumentRoot; 0 removes the
// scope.
func (t *Translation) InDocument(root int) *Translation {
	c := *t
	c.doc = root
	return &c
}

// Execute runs the translated program on the engine's configured backend
// (WithBackend), pinning a fresh snapshot for the run. It returns
// ErrNoBackend when the engine was built without one.
func (t *Translation) Execute(ctx context.Context) (*Answer, error) {
	if t.backend == nil {
		return nil, ErrNoBackend
	}
	return t.ExecuteOn(ctx, t.backend)
}

// ExecuteOn runs the translated program on an explicit backend, regardless
// of how the engine was configured: the same translation can be executed on
// the in-process engine and on a SQL database side by side (the repository's
// differential suite does exactly this).
func (t *Translation) ExecuteOn(ctx context.Context, b Backend) (*Answer, error) {
	snap, err := b.Snapshot(ctx)
	if err != nil {
		return nil, err
	}
	defer snap.Close()
	return t.ExecuteSnapshot(ctx, snap)
}

// ExecuteSnapshot runs the translated program on a snapshot the caller has
// pinned and still owns: several translations run on one snapshot read one
// version of the document (the server's /v1/batch does this). It is the
// single execution path every Execute variant funnels into, with one
// documented semantics:
//
//   - Limits: the translation's limits (the engine's WithLimits) are
//     enforced by the snapshot's executor; breaches return *LimitError.
//   - Serial: statements and operators run one after another on the
//     calling goroutine, on one pooled executor.
//   - Trace: every run records a per-statement trace into its Answer
//     (Answer.Explain renders it); runs never share mutable state.
//   - Cancellation: honored between statements and fixpoint iterations,
//     returning the context's error.
//   - Scope: a translation bound to a document (InDocument) runs over that
//     document's sub-database; a backend that cannot scope refuses with
//     ErrUnsupportedPlan rather than answer from the whole image.
func (t *Translation) ExecuteSnapshot(ctx context.Context, snap BackendSnapshot) (*Answer, error) {
	trace := &obs.Trace{}
	res, err := snap.Execute(ctx, t.res.Program, backend.ExecOptions{
		Limits:    t.limits,
		Trace:     trace,
		Intervals: t.intervals,
		Doc:       t.doc,
	})
	if err != nil {
		return nil, err
	}
	ans := &Answer{IDs: res.IDs, Stats: res.Stats, Trace: trace, Epoch: max(snap.Epoch(), res.Epoch),
		Degraded: res.Degraded, FailedShards: res.Failed, prog: t.res.Program}
	if t.cache != nil {
		cs := t.cache.Stats()
		ans.cache = &cs
	}
	return ans, nil
}

// Explain renders the translation's bare plan: one line per RA statement.
// Execution annotations — observed cardinalities, iteration counts, wall
// time — travel with each run's Answer; render them with Answer.Explain.
func (t *Translation) Explain() string {
	return obs.Explain(t.res.Program, nil, nil)
}
