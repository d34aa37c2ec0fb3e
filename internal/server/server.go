// Package server is the production query service over the xpath2sql Engine:
// a stdlib-only (net/http) daemon front end that turns the in-process
// pipeline — plan-cached translation, pooled serial execution, typed
// limits — into a network service (the "ship SQL to the RDBMS and return
// the answer" arrow of the paper's Fig. 1, with the bundled engine standing
// in for the RDBMS).
//
// Endpoints:
//
//	POST /v1/query      one XPath query → JSON answer (optional Explain)
//	POST /v1/batch      several queries → their answers, run on one snapshot
//	POST /v1/translate  SQL only: WITH…RECURSIVE and CONNECT BY renderings
//	POST /v1/update     document update (live store only): insert_subtree,
//	                    delete_subtree or update_text
//	POST /v1/watch      continuous query (live store only): initial snapshot
//	                    then per-epoch answer deltas, as an SSE stream or a
//	                    long-poll JSON batch
//	POST /admin/snapshot checkpoint the live store to disk
//	GET  /healthz       liveness (process is up)
//	GET  /readyz        readiness (503 while draining)
//	GET  /metrics       Prometheus text exposition (obs.MetricsSnapshot)
//
// When built over a live document store (Source: FromStore), every query pins the
// store's current epoch — an immutable snapshot — so readers never block on
// writers and never see a half-applied update; updates are DTD-validated,
// WAL-logged and applied by the store's single serialized writer. Update
// faults follow the same "user faults never 500" rule: a non-conforming
// update is 422, an unknown node ID 404, a malformed fragment 400.
//
// With Source: FromBackend(b) the server executes through a storage-neutral
// Backend instead — e.g. the database/sql executor that ships the generated
// WITH RECURSIVE text to a real RDBMS. Backend mode is read-only and serves
// /v1/query, /v1/batch and /v1/translate only.
//
// With Source: FromCluster(c) the server is the edge of a sharded deployment
// — in-process shards (cluster.Open) or an xpathd fleet (cluster.Connect,
// what cmd/xpathrouter runs): it parses and translates here and hands the
// program to the cluster's router, /v1/update goes to the owning shard, and
// /readyz follows the cluster's read mode.
//
// Robustness model:
//
//   - Admission control: a semaphore bounds concurrent executions, a bounded
//     queue absorbs bursts, and overflow is rejected with 429 Retry-After —
//     goroutines never accumulate without bound.
//   - Deadlines: every request runs under a context bounded by the server's
//     RequestTimeout (a request may ask for less, never more); engine limits
//     surface as typed *LimitError.
//   - Fault mapping: user faults never 500 — parse errors are 400, limit
//     breaches and unsupported queries 422, deadline expiry 504, saturation
//     429. Handler panics become a 500 plus a metric, not a dead process.
//   - Graceful shutdown: Shutdown flips /readyz to 503, stops accepting,
//     drains in-flight requests.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"xpath2sql"
	"xpath2sql/internal/cluster"
	"xpath2sql/internal/ivm"
	"xpath2sql/internal/store"
)

// batchFanout bounds the queries of one /v1/batch in flight through a cluster
// source at once.
const batchFanout = 16

// Endpoint names used for metrics labels.
const (
	epQuery     = "query"
	epBatch     = "batch"
	epTranslate = "translate"
	epUpdate    = "update"
	epWatch     = "watch"
	epSnapshot  = "snapshot"
	epHealth    = "healthz"
	epReady     = "readyz"
	epMetrics   = "metrics"
)

// Config assembles a Server. Engine and Source are required; everything else
// has serving-grade defaults.
type Config struct {
	// Engine answers queries; its plan cache and limits are
	// the server's. Required.
	Engine *xpath2sql.Engine
	// Source is the data source queries execute against: FromDB for a
	// static shredded database, FromStore for a live store (update and
	// snapshot endpoints enabled), FromBackend for a storage-neutral
	// Backend (read-only). Required.
	Source Source

	// MaxConcurrent bounds simultaneously executing requests (admission
	// semaphore). Default: GOMAXPROCS.
	MaxConcurrent int
	// QueueDepth bounds requests waiting for an execution slot; arrivals
	// beyond it get 429. Default: 4 × MaxConcurrent.
	QueueDepth int
	// RequestTimeout caps each request's execution context; a request's
	// timeout_ms may shorten it but never exceed it. Default: 30s.
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies. Default: 1 MiB.
	MaxBodyBytes int64

	// BatchWindow and MaxBatch configured /v1/query micro-batching, which was
	// removed (DESIGN.md "Serving concurrency"). The names stay because
	// benchmark/layers.go sets them; nothing reads MaxBatch, and New refuses
	// BatchWindow > 0.
	BatchWindow time.Duration
	MaxBatch    int

	// WatchMaxSubscriptions caps concurrently active /v1/watch
	// subscriptions (live store only); arrivals beyond it get 429.
	// 0 selects the ivm default; negative is unlimited.
	WatchMaxSubscriptions int
	// WatchBuffer bounds each subscription's pending-event buffer; a
	// subscriber that falls further behind is degraded to a snapshot
	// resync. 0 selects the ivm default.
	WatchBuffer int

	// Service prefixes metric names. Default: "xpathd".
	Service string
}

func (c *Config) fillDefaults() {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4 * c.MaxConcurrent
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.Service == "" {
		c.Service = "xpathd"
	}
}

// Server is the query service. Build with New, expose with Handler (any
// http.Server or test harness) or Serve/ListenAndServe (managed listener
// with graceful Shutdown).
type Server struct {
	cfg Config
	eng *xpath2sql.Engine
	// The source's parts: the one execution backend and the live store (nil
	// when read-only).
	execBe  xpath2sql.Backend
	store   *store.Store
	cluster *cluster.Cluster    // non-nil for FromCluster sources
	hub     *xpath2sql.WatchHub // nil when read-only (no live store)
	adm     *admission
	m       *metrics
	mux     *http.ServeMux

	httpSrv  *http.Server
	draining atomic.Bool

	// hookAfterAdmit, when set (tests only), runs after a request acquires
	// its admission slot and before it executes — the seam saturation and
	// drain tests use to hold slots deterministically.
	hookAfterAdmit func()
}

// New validates the config and builds a ready-to-serve Server.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, errors.New("server: Config.Engine is required")
	}
	src := cfg.Source
	if src.be == nil {
		return nil, errors.New("server: Config.Source is required (FromDB, FromStore, FromBackend or FromCluster)")
	}
	if cfg.BatchWindow > 0 {
		return nil, errors.New("server: Config.BatchWindow > 0: micro-batching was removed, every /v1/query executes directly; leave it 0")
	}
	cfg.fillDefaults()
	endpoints := []string{epQuery, epBatch, epTranslate}
	if src.st != nil {
		endpoints = append(endpoints, epUpdate, epWatch, epSnapshot)
	} else if src.cl != nil {
		endpoints = append(endpoints, epUpdate)
	}
	s := &Server{
		cfg:     cfg,
		eng:     cfg.Engine,
		execBe:  src.be,
		store:   src.st,
		cluster: src.cl,
		adm:     newAdmission(cfg.MaxConcurrent, cfg.QueueDepth),
		m:       newMetrics(endpoints),
	}
	if s.store != nil {
		hub, err := cfg.Engine.NewWatchHub(s.store, xpath2sql.WatchConfig{
			MaxSubscriptions:   cfg.WatchMaxSubscriptions,
			SubscriptionBuffer: cfg.WatchBuffer,
		})
		if err != nil {
			return nil, err
		}
		s.hub = hub
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", s.instrument(epQuery, s.handleQuery))
	mux.HandleFunc("POST /v1/batch", s.instrument(epBatch, s.handleBatch))
	mux.HandleFunc("POST /v1/translate", s.instrument(epTranslate, s.handleTranslate))
	if s.store != nil || s.cluster != nil {
		mux.HandleFunc("POST /v1/update", s.instrument(epUpdate, s.handleUpdate))
	}
	if s.store != nil {
		mux.HandleFunc("POST /v1/watch", s.instrument(epWatch, s.handleWatch))
		mux.HandleFunc("POST /admin/snapshot", s.instrument(epSnapshot, s.handleSnapshot))
	}
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	return s, nil
}

// Handler returns the server's HTTP handler (panic isolation included), for
// embedding in an external http.Server or httptest.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on l until Shutdown. It returns the error from
// the underlying http.Server (http.ErrServerClosed after a clean Shutdown).
func (s *Server) Serve(l net.Listener) error {
	s.httpSrv = &http.Server{Handler: s.mux}
	return s.httpSrv.Serve(l)
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Run is a daemon's main loop over a Server: it serves on l until SIGINT or
// SIGTERM, then drains in-flight requests within drainTimeout, logging both.
func (s *Server) Run(l net.Listener, drainTimeout time.Duration) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- s.Serve(l) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("signal received; draining in-flight requests (budget %v)", drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := s.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Print("drained; bye")
	return nil
}

// Shutdown drains the server: /readyz starts answering 503 (so load
// balancers stop routing here), watch subscriptions are closed (their
// streams end cleanly, so SSE connections count down as in-flight requests),
// the listener stops accepting and in-flight requests run to completion
// (bounded by ctx). Safe to call when serving via Handler too — it then only
// flips readiness and closes the hub.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	if s.hub != nil {
		s.hub.Close()
	}
	if s.httpSrv != nil {
		return s.httpSrv.Shutdown(ctx)
	}
	return nil
}

// --- request/response shapes -------------------------------------------

type queryRequest struct {
	Query string `json:"query"`
	// TimeoutMS shortens (never extends) the server's request timeout.
	TimeoutMS int  `json:"timeout_ms,omitempty"`
	Explain   bool `json:"explain,omitempty"`
	// Doc scopes the query to one document, named by its root's node ID: the
	// answer is the query evaluated over that document alone, at the cost of
	// the document, not of the collection. A cluster source routes it to the
	// single shard owning the document instead of scattering. An ID that is
	// not a document root of the version the request pins is 404.
	Doc int `json:"doc,omitempty"`
}

type queryResponse struct {
	IDs       []int               `json:"ids"`
	Count     int                 `json:"count"`
	ElapsedMS float64             `json:"elapsed_ms"`
	Stats     xpath2sql.ExecStats `json:"stats"`
	Explain   string              `json:"explain,omitempty"`
	// Cluster sources only: the partial-failure metadata of the scatter
	// (field order here must match writeQueryResponse).
	Degraded     bool     `json:"degraded,omitempty"`
	FailedShards []string `json:"failed_shards,omitempty"`
	// Watermark is the epoch the answer was read at — of a cluster, the
	// oldest among the shards that answered — to check a read against the
	// epoch a /v1/update returned. Omitted at 0 (nothing written yet).
	Watermark uint64 `json:"watermark,omitempty"`
}

type batchRequest struct {
	Queries   []string `json:"queries"`
	TimeoutMS int      `json:"timeout_ms,omitempty"`
}

type batchItem struct {
	IDs   []int               `json:"ids"`
	Count int                 `json:"count"`
	Stats xpath2sql.ExecStats `json:"stats"`
}

type batchResponse struct {
	Results   []batchItem         `json:"results"`
	ElapsedMS float64             `json:"elapsed_ms"`
	Stats     xpath2sql.ExecStats `json:"stats"` // the sum of the results' stats
	// Watermark is the epoch the batch was read at: the one pinned version,
	// or through a cluster the oldest among the queries' watermarks. Omitted
	// at 0, as on /v1/query.
	Watermark uint64 `json:"watermark,omitempty"`
}

type translateRequest struct {
	Query string `json:"query"`
	// Dialect selects the rendering, any name xpath2sql.ParseDialect reads:
	// "db2" or "sql99" (WITH…RECURSIVE), "oracle" (CONNECT BY); empty for
	// both.
	Dialect string `json:"dialect,omitempty"`
}

type translateResponse struct {
	Strategy      string            `json:"strategy"`
	ExtendedXPath string            `json:"extended_xpath,omitempty"`
	Statements    int               `json:"statements"`
	SQL           map[string]string `json:"sql"`
}

type updateRequest struct {
	// Op is one of "insert_subtree", "delete_subtree", "update_text".
	Op string `json:"op"`
	// Parent receives the inserted subtree (insert_subtree).
	Parent int `json:"parent,omitempty"`
	// Node is the target of delete_subtree / update_text.
	Node int `json:"node,omitempty"`
	// Fragment is the XML of the subtree to insert.
	Fragment string `json:"fragment,omitempty"`
	// Value is the new text value for update_text.
	Value     string `json:"value"`
	TimeoutMS int    `json:"timeout_ms,omitempty"`
}

type updateResponse struct {
	// NodeID is the root of the inserted subtree (node IDs are assigned
	// contiguously in preorder from it) or the deleted/updated node.
	NodeID int `json:"node_id"`
	// Nodes is the number of nodes inserted or deleted (1 for update_text).
	Nodes int `json:"nodes"`
	// Epoch and LSN identify the first database version with the update;
	// any query answered afterwards runs on Epoch or newer.
	Epoch     uint64  `json:"epoch"`
	LSN       uint64  `json:"lsn"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

type snapshotResponse struct {
	Path      string  `json:"path"`
	Epoch     uint64  `json:"epoch"`
	LSN       uint64  `json:"lsn"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

type errorResponse struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

// --- middleware ---------------------------------------------------------

// statusRecorder captures the status code written by a handler.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Unwrap exposes the underlying writer to http.ResponseController, so the
// SSE watch handler can flush through the instrumentation wrapper.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// instrument wraps a handler with panic isolation and request accounting:
// in-flight gauge, per-(endpoint, code) counters and the latency histogram.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		s.m.inFlight.Add(1)
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			if p := recover(); p != nil {
				s.m.panics.Add(1)
				// Best effort: the handler may have written already.
				writeError(rec, http.StatusInternalServerError, "internal", fmt.Sprintf("internal error: %v", p))
			}
			s.m.inFlight.Add(-1)
			s.m.observe(endpoint, rec.code, time.Since(t0))
		}()
		h(rec, r)
	}
}

// --- error mapping ------------------------------------------------------

// mapError translates a pipeline error to (HTTP status, error kind). The
// invariant "user faults never 500" lives here.
func mapError(err error) (int, string) {
	var le *xpath2sql.LimitError
	var se *cluster.ShardError
	switch {
	case errors.As(err, &se):
		// A remote shard's own 4xx verdict on the request, forwarded as is.
		return se.Status, se.Kind
	case errors.Is(err, errSaturated):
		return http.StatusTooManyRequests, "saturated"
	case errors.Is(err, xpath2sql.ErrSubscriptionLimit):
		return http.StatusTooManyRequests, "watch_limit"
	case errors.Is(err, ivm.ErrClosed):
		return http.StatusServiceUnavailable, "draining"
	case errors.Is(err, xpath2sql.ErrQueryParse):
		return http.StatusBadRequest, "parse"
	case errors.Is(err, store.ErrUnknownNode), errors.Is(err, xpath2sql.ErrNotDocumentRoot):
		return http.StatusNotFound, "unknown_node"
	case errors.Is(err, store.ErrInvalid):
		return http.StatusUnprocessableEntity, "invalid_update"
	case errors.Is(err, store.ErrBadFragment):
		return http.StatusBadRequest, "bad_fragment"
	case errors.Is(err, store.ErrNoDurability):
		return http.StatusUnprocessableEntity, "no_durability"
	case errors.Is(err, store.ErrClosed):
		return http.StatusServiceUnavailable, "closed"
	case errors.Is(err, cluster.ErrDegraded):
		return http.StatusServiceUnavailable, "degraded"
	case errors.Is(err, cluster.ErrShardDown):
		return http.StatusServiceUnavailable, "shard_down"
	case errors.Is(err, xpath2sql.ErrUnsupportedQuery), errors.Is(err, xpath2sql.ErrUnsupportedPlan),
		errors.Is(err, xpath2sql.ErrScopeNeedsIntervals):
		// The last two are what a document-scoped query gets from a source
		// that cannot scope: a SQL backend, a database without intervals.
		return http.StatusUnprocessableEntity, "unsupported"
	case errors.As(err, &le), errors.Is(err, xpath2sql.ErrLimit):
		return http.StatusUnprocessableEntity, "limit"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "timeout"
	case errors.Is(err, context.Canceled):
		// Client went away; 499 is the de-facto code for it.
		return 499, "canceled"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, kind, msg string) {
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, errorResponse{Error: msg, Kind: kind})
}

// fail maps err and writes the error response, bumping fault metrics.
func (s *Server) fail(w http.ResponseWriter, err error) {
	code, kind := mapError(err)
	switch kind {
	case "saturated":
		s.m.rejections.Add(1)
	case "limit":
		s.m.limitErrors.Add(1)
	}
	writeError(w, code, kind, err.Error())
}

// decode reads a JSON body with the size cap; errors are user faults (400).
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "body_too_large",
				fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes))
			return false
		}
		writeError(w, http.StatusBadRequest, "bad_request", "malformed request body: "+err.Error())
		return false
	}
	return true
}

// requestContext derives the execution context: the server timeout, tightened
// by the request's timeout_ms when given.
func (s *Server) requestContext(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	d := s.cfg.RequestTimeout
	if timeoutMS > 0 {
		if rd := time.Duration(timeoutMS) * time.Millisecond; rd < d {
			d = rd
		}
	}
	return context.WithTimeout(r.Context(), d)
}

// --- handlers -----------------------------------------------------------

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Query == "" {
		writeError(w, http.StatusBadRequest, "bad_request", `missing "query"`)
		return
	}
	if req.Doc < 0 {
		writeError(w, http.StatusBadRequest, "bad_request", `"doc" must be a document root node ID`)
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	if err := s.adm.acquire(ctx); err != nil {
		s.fail(w, err)
		return
	}
	defer s.adm.release()
	if s.hookAfterAdmit != nil {
		s.hookAfterAdmit()
	}

	t0 := time.Now()
	p, err := s.eng.PrepareString(ctx, req.Query)
	if err != nil {
		s.fail(w, err)
		return
	}
	t := &p.Translation
	if req.Doc != 0 {
		t = t.InDocument(req.Doc)
	}
	snap, err := s.execBe.Snapshot(ctx)
	if err != nil {
		s.fail(w, err)
		return
	}
	defer snap.Close()
	ans, err := t.ExecuteSnapshot(ctx, snap)
	if err != nil {
		s.fail(w, err)
		return
	}
	s.m.recordExec(ans.Stats)
	resp := queryResponse{
		IDs:          ans.IDs,
		Count:        len(ans.IDs),
		ElapsedMS:    time.Since(t0).Seconds() * 1000,
		Stats:        ans.Stats,
		Degraded:     ans.Degraded,
		FailedShards: ans.FailedShards,
		Watermark:    ans.Epoch,
	}
	if req.Explain {
		resp.Explain = ans.Explain()
	}
	writeQueryResponse(w, &resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, http.StatusBadRequest, "bad_request", `missing "queries"`)
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	// One admission slot per batch request, however many queries it holds.
	if err := s.adm.acquire(ctx); err != nil {
		s.fail(w, err)
		return
	}
	defer s.adm.release()
	if s.hookAfterAdmit != nil {
		s.hookAfterAdmit()
	}

	queries := make([]xpath2sql.Query, len(req.Queries))
	for i, qs := range req.Queries {
		q, err := xpath2sql.ParseQuery(qs)
		if err != nil {
			s.fail(w, fmt.Errorf("query %d: %w", i, err))
			return
		}
		queries[i] = q
	}
	t0 := time.Now()
	// A batch is its queries, each run as /v1/query runs it, on one snapshot:
	// on a live store every member reads the same version however many
	// updates land meanwhile.
	snap, err := s.execBe.Snapshot(ctx)
	if err != nil {
		s.fail(w, err)
		return
	}
	defer snap.Close()
	results := make([]batchItem, len(queries))
	epochs := make([]uint64, len(queries))
	errs := make([]error, len(queries))
	runOne := func(i int) {
		p, err := s.eng.Prepare(ctx, queries[i])
		if err != nil {
			errs[i] = err
			return
		}
		ans, err := p.ExecuteSnapshot(ctx, snap)
		if err != nil {
			errs[i] = err
			return
		}
		results[i] = batchItem{IDs: ans.IDs, Count: len(ans.IDs), Stats: ans.Stats}
		epochs[i] = ans.Epoch
	}
	if s.cluster == nil {
		for i := range queries {
			if runOne(i); errs[i] != nil {
				break
			}
		}
	} else {
		// Through a cluster a query is mostly a wait for shards: batchFanout
		// at a time, Q round trips overlap instead of adding up.
		var wg sync.WaitGroup
		slots := make(chan struct{}, batchFanout)
		for i := range queries {
			wg.Add(1)
			slots <- struct{}{}
			go func() {
				defer wg.Done()
				runOne(i)
				<-slots
			}()
		}
		wg.Wait()
	}
	// Results are in request order, and so is the error reported.
	var total xpath2sql.ExecStats
	for i, err := range errs {
		if err != nil {
			s.fail(w, fmt.Errorf("query %d: %w", i, err))
			return
		}
		total.Add(results[i].Stats)
	}
	s.m.recordExec(total)
	writeJSON(w, http.StatusOK, batchResponse{
		ElapsedMS: time.Since(t0).Seconds() * 1000,
		Stats:     total,
		Results:   results,
		Watermark: slices.Min(epochs),
	})
}

func (s *Server) handleTranslate(w http.ResponseWriter, r *http.Request) {
	var req translateRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Query == "" {
		writeError(w, http.StatusBadRequest, "bad_request", `missing "query"`)
		return
	}
	// Empty renders both dialects; a name is what xpath2sql.ParseDialect reads.
	dialects := []xpath2sql.Dialect{xpath2sql.DialectDB2, xpath2sql.DialectOracle}
	if req.Dialect != "" {
		d, err := xpath2sql.ParseDialect(req.Dialect)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", err.Error())
			return
		}
		dialects = []xpath2sql.Dialect{d}
	}
	ctx, cancel := s.requestContext(r, 0)
	defer cancel()
	// Translation is CPU work too: it queues behind the same semaphore.
	if err := s.adm.acquire(ctx); err != nil {
		s.fail(w, err)
		return
	}
	defer s.adm.release()
	if s.hookAfterAdmit != nil {
		s.hookAfterAdmit()
	}

	p, err := s.eng.PrepareString(ctx, req.Query)
	if err != nil {
		s.fail(w, err)
		return
	}
	resp := translateResponse{
		Strategy:   p.Strategy().String(),
		Statements: len(p.Program().Stmts),
		SQL:        map[string]string{},
	}
	if eq := p.ExtendedXPath(); eq != nil {
		resp.ExtendedXPath = eq.String()
	}
	for _, d := range dialects {
		sql, err := p.SQL(d)
		if err != nil {
			s.fail(w, err)
			return
		}
		resp.SQL[d.String()] = sql
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleUpdate applies one document update through the live store. Updates
// take an admission slot like queries (they compete for the same CPU), then
// serialize on the store's writer lock.
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var req updateRequest
	if !s.decode(w, r, &req) {
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	if err := s.adm.acquire(ctx); err != nil {
		s.fail(w, err)
		return
	}
	defer s.adm.release()
	if s.hookAfterAdmit != nil {
		s.hookAfterAdmit()
	}

	t0 := time.Now()
	var res store.UpdateResult
	var err error
	switch req.Op {
	case "insert_subtree":
		if req.Fragment == "" {
			writeError(w, http.StatusBadRequest, "bad_request", `missing "fragment"`)
			return
		}
		if s.cluster != nil {
			res, err = s.cluster.Update(ctx, cluster.UpdateRequest{
				Op: store.OpInsert, Parent: req.Parent, Fragment: req.Fragment})
		} else {
			res, err = s.store.InsertSubtree(req.Parent, req.Fragment)
		}
	case "delete_subtree":
		if s.cluster != nil {
			res, err = s.cluster.Update(ctx, cluster.UpdateRequest{Op: store.OpDelete, Node: req.Node})
		} else {
			res, err = s.store.DeleteSubtree(req.Node)
		}
	case "update_text":
		if s.cluster != nil {
			res, err = s.cluster.Update(ctx, cluster.UpdateRequest{
				Op: store.OpUpdateText, Node: req.Node, Value: req.Value})
		} else {
			res, err = s.store.UpdateText(req.Node, req.Value)
		}
	default:
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("unknown op %q (want \"insert_subtree\", \"delete_subtree\" or \"update_text\")", req.Op))
		return
	}
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, updateResponse{
		NodeID:    res.NodeID,
		Nodes:     res.Nodes,
		Epoch:     res.Epoch,
		LSN:       res.LSN,
		ElapsedMS: time.Since(t0).Seconds() * 1000,
	})
}

// handleSnapshot checkpoints the store: snapshot file written, WAL rotated,
// covered segments garbage-collected. 422 on an ephemeral store.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	info, err := s.store.Checkpoint()
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, snapshotResponse{
		Path:      info.Path,
		Epoch:     info.Epoch,
		LSN:       info.LSN,
		ElapsedMS: info.Elapsed.Seconds() * 1000,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	if s.cluster != nil {
		if err := s.cluster.Ready(r.Context()); err != nil {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "not ready:", err)
			return
		}
	}
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	es := s.eng.Stats()
	// The server's source decides the actual execution backend; it wins
	// over whatever the engine was (or wasn't) configured with.
	es.Backend = s.execBe.Name()
	snap := s.m.snapshot(s.cfg.Service, es, s.adm)
	snap.InFlight = int64(s.adm.executing())
	if s.store != nil {
		st := s.store.Stats()
		snap.Store = &st
	}
	if s.cluster != nil {
		cs := s.cluster.Stats()
		snap.Cluster = &cs
	}
	if s.hub != nil {
		ws := s.hub.Stats()
		snap.Watch = &ws
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	snap.WritePrometheus(w)
}
