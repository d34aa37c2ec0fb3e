package obs

// Serving metrics: a fixed-bucket latency histogram safe for concurrent
// observation, and MetricsSnapshot — the one-struct aggregation of server,
// engine, plan-cache and data-plane counters that internal/server renders at
// GET /metrics. The Prometheus text exposition is hand-rolled here (the repo
// is stdlib-only); the format is the v0.0.4 text format every Prometheus
// scraper understands.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// DefaultLatencyBuckets are the histogram upper bounds, in seconds, used for
// request latency: ~exponential from 100µs to 10s, matching in-process
// translation+execution latencies (sub-millisecond cache-hit queries up to
// multi-second fixpoints on large recursive documents).
var DefaultLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket latency histogram; Observe is lock-free and
// safe for concurrent use, Snapshot is a consistent-enough read for metric
// scraping (each counter is read atomically; the set of reads is not a
// single atomic transaction, which Prometheus semantics tolerate).
// Construct with NewHistogram; the zero value is not usable.
type Histogram struct {
	bounds []float64      // sorted upper bounds, seconds
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Int64
	sum    atomic.Int64 // nanoseconds
}

// NewHistogram builds a histogram over the given upper bounds (seconds,
// ascending); nil selects DefaultLatencyBuckets.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBuckets
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	secs := d.Seconds()
	i := sort.SearchFloat64s(h.bounds, secs) // first bound >= secs
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// Snapshot captures the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds:  h.bounds,
		Buckets: make([]int64, len(h.counts)),
		Count:   h.count.Load(),
		Sum:     time.Duration(h.sum.Load()).Seconds(),
	}
	for i := range h.counts {
		s.Buckets[i] = h.counts[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram. Buckets holds
// per-bucket (non-cumulative) counts, one per bound plus the final +Inf
// bucket; Sum is total observed seconds.
type HistogramSnapshot struct {
	Bounds  []float64
	Buckets []int64
	Count   int64
	Sum     float64
}

// Quantile estimates the q-quantile (q in [0,1]) in seconds by linear
// interpolation within the bucket containing the target rank — the same
// estimate Prometheus's histogram_quantile computes. Observations beyond the
// last finite bound are reported as that bound. Returns 0 on an empty
// histogram.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum int64
	for i, c := range s.Buckets {
		prev := cum
		cum += c
		if float64(cum) < rank || c == 0 {
			continue
		}
		if i >= len(s.Bounds) { // +Inf bucket
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		frac := (rank - float64(prev)) / float64(c)
		return lo + (hi-lo)*frac
	}
	if len(s.Bounds) == 0 {
		return 0
	}
	return s.Bounds[len(s.Bounds)-1]
}

// RequestCount is one (endpoint, status code) request counter.
type RequestCount struct {
	Endpoint string
	Code     int
	Count    int64
}

// EndpointLatency pairs an endpoint with its latency histogram snapshot.
type EndpointLatency struct {
	Endpoint string
	Hist     HistogramSnapshot
}

// MetricsSnapshot aggregates every counter the serving layer exposes:
// HTTP-level request accounting, admission-control pressure, the engine's
// plan-cache counters, and the data plane's aggregate operator work across
// all served executions. internal/server assembles one per scrape and renders
// it with WritePrometheus.
type MetricsSnapshot struct {
	// Service prefixes every metric name; empty defaults to "xpathd".
	Service string
	Uptime  time.Duration

	// HTTP layer.
	Requests []RequestCount
	Latency  []EndpointLatency
	InFlight int64
	Queued   int64

	// Admission and fault counters.
	Rejections  int64 // 429s: admission queue overflow
	LimitErrors int64 // 422s: typed *LimitError from execution
	Panics      int64 // handler panics converted to 500s

	// Engine carries the engine's aggregate stats surface (Engine.Stats):
	// plan-cache counters, configured parallelism and the execution backend.
	Engine EngineStats

	// Data plane, summed over all served executions.
	Exec     OpStats
	StmtsRun int64

	// Store, when non-nil, carries the live document store's counters.
	Store *StoreStats

	// Watch, when non-nil, carries the continuous-query subsystem's
	// counters.
	Watch *WatchStats

	// Cluster, when non-nil, carries the scatter-gather router's counters
	// (internal/cluster).
	Cluster *ClusterStats
}

// WatchStats snapshots the continuous-query subsystem (internal/ivm):
// standing views and their subscriptions, published answer deltas, overflow
// resyncs, the incremental-vs-rerun maintenance split with the tuple work
// each side performed, and the update→delta propagation latency.
type WatchStats struct {
	ActiveSubscriptions int64
	ActiveViews         int64
	DeltasPublished     int64
	Resyncs             int64
	// Maintained counts updates applied to a view incrementally; Reruns
	// counts updates that fell back to full re-evaluation. The *Tuples
	// fields hold the operator tuple work performed by each path — their
	// ratio is the economy of maintenance over re-running the program.
	Maintained       int64
	Reruns           int64
	MaintainedTuples int64
	RerunTuples      int64
	// RerunsByReason splits Reruns by why the view could not take the update
	// as a delta.
	RerunsByReason RerunReasons
	// Propagation is the update-applied → delta-published latency.
	Propagation HistogramSnapshot
	// SharedPlans counts Watch registrations that attached to an existing
	// view instead of materializing a new one — identical standing queries
	// (same plan key) share one ViewState and one maintenance pass.
	SharedPlans int64
}

// RerunReasons counts full re-evaluations of standing views by cause: the plan
// is not monotone (negation, SQLGen-R's recursion, tracked paths), so no
// structural update is a delta to it; a text update reached a view that
// selects on values; the view was not at the epoch right before the update's;
// or delta maintenance itself failed. They add up to WatchStats.Reruns.
type RerunReasons struct {
	NonMonotone int64
	Text        int64
	EpochGap    int64
	Error       int64
}

// ClusterStats snapshots the scale-out router (internal/cluster): deployment
// shape, routing counters, degraded-read accounting and the per-shard health
// rows the smoke tests and dashboards read.
type ClusterStats struct {
	ShardCount int
	Mode       string // partial-failure policy: strict, quorum or best-effort
	Placement  string // document placement function
	Scatters   int64  // queries fanned to every shard
	DocQueries int64  // document-scoped queries routed to one owner shard
	Updates    int64  // writes routed to owning shards
	Degraded   int64  // answers served with shards missing
	Failures   int64  // the sum of Shards[i].Failures (exposed per shard, not as a second family)
	Shards     []ClusterShardStats
}

// ClusterShardStats is one shard's row in the cluster snapshot.
type ClusterShardStats struct {
	Name     string
	Down     bool   // the shard is not serving: reads and writes routed to it fail
	Epoch    uint64 // newest epoch sequence the router has seen the shard publish
	Queries  int64
	Failures int64
	Hedges   int64 // second calls made after a retryable failure (the router's one retry)
}

// StoreStats snapshots the document store: the published epoch, WAL volume,
// per-operation counters and the apply-latency histogram. internal/store
// produces one per scrape.
type StoreStats struct {
	Epoch       uint64
	LSN         uint64
	Nodes       int64
	Inserts     int64
	Deletes     int64
	TextUpdates int64
	Rejected    int64
	WALBytes    int64
	WALRecords  int64
	Replayed    int64 // WAL records replayed during the last recovery
	Checkpoints int64
	// CheckpointFailures counts the automatic checkpoints that failed; the
	// WAL keeps growing until one succeeds.
	CheckpointFailures int64
	// Relabels counts the inserts that found no free interval labels before
	// their parent's end and had to respread a subtree (or the database) to
	// make room; RelabelledNodes is how many labels those rewrote in all.
	Relabels        int64
	RelabelledNodes int64
	// CatalogChunksCopied counts the node-table chunks (128 node IDs each:
	// parent, value, element type, interval) updates copied before writing
	// them — what the catalog and label side of a write costs, whatever the
	// database's size.
	CatalogChunksCopied int64
	// Symbols is the strings the published epoch's dictionary holds: the
	// distinct values and element types, dead ones included until a
	// compaction. SymbolsLive is the live symbols the store's last check of
	// the dictionary found (the whole dictionary of a fresh load), so
	// Symbols − SymbolsLive is the dead ones at that check plus the strings
	// interned since. SymbolCompactions counts the updates that moved the
	// store onto a dictionary without its dead symbols once a quarter of the
	// strings held were dead.
	Symbols           int64
	SymbolsLive       int64
	SymbolCompactions int64
	Apply             HistogramSnapshot
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (counters, gauges and histograms with HELP/TYPE headers). Output is
// deterministic: series are emitted in sorted label order.
func (m *MetricsSnapshot) WritePrometheus(w io.Writer) {
	p := m.Service
	if p == "" {
		p = "xpathd"
	}

	reqs := append([]RequestCount(nil), m.Requests...)
	sort.Slice(reqs, func(i, j int) bool {
		if reqs[i].Endpoint != reqs[j].Endpoint {
			return reqs[i].Endpoint < reqs[j].Endpoint
		}
		return reqs[i].Code < reqs[j].Code
	})
	fmt.Fprintf(w, "# HELP %s_requests_total Requests served, by endpoint and status code.\n", p)
	fmt.Fprintf(w, "# TYPE %s_requests_total counter\n", p)
	for _, r := range reqs {
		fmt.Fprintf(w, "%s_requests_total{endpoint=%q,code=\"%d\"} %d\n", p, r.Endpoint, r.Code, r.Count)
	}

	lats := append([]EndpointLatency(nil), m.Latency...)
	sort.Slice(lats, func(i, j int) bool { return lats[i].Endpoint < lats[j].Endpoint })
	fmt.Fprintf(w, "# HELP %s_request_seconds Request latency, by endpoint.\n", p)
	fmt.Fprintf(w, "# TYPE %s_request_seconds histogram\n", p)
	for _, l := range lats {
		var cum int64
		for i, c := range l.Hist.Buckets {
			cum += c
			le := "+Inf"
			if i < len(l.Hist.Bounds) {
				le = formatBound(l.Hist.Bounds[i])
			}
			fmt.Fprintf(w, "%s_request_seconds_bucket{endpoint=%q,le=%q} %d\n", p, l.Endpoint, le, cum)
		}
		fmt.Fprintf(w, "%s_request_seconds_sum{endpoint=%q} %g\n", p, l.Endpoint, l.Hist.Sum)
		fmt.Fprintf(w, "%s_request_seconds_count{endpoint=%q} %d\n", p, l.Endpoint, l.Hist.Count)
	}

	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s_%s %s\n# TYPE %s_%s gauge\n%s_%s %d\n", p, name, help, p, name, p, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s_%s %s\n# TYPE %s_%s counter\n%s_%s %d\n", p, name, help, p, name, p, name, v)
	}

	gauge("inflight_requests", "Requests currently executing.", m.InFlight)
	gauge("queued_requests", "Requests waiting in the admission queue.", m.Queued)
	counter("admission_rejected_total", "Requests rejected with 429 by admission control.", m.Rejections)
	counter("limit_errors_total", "Executions aborted by a resource limit (422).", m.LimitErrors)
	counter("panics_total", "Handler panics converted to 500s.", m.Panics)

	counter("plancache_hits_total", "Plan-cache lookups served from cache.", m.Engine.Cache.Hits)
	counter("plancache_misses_total", "Plan-cache lookups that ran a translation.", m.Engine.Cache.Misses)
	counter("plancache_coalesced_total", "Plan-cache lookups coalesced onto an in-flight translation.", m.Engine.Cache.Coalesced)
	counter("plancache_evictions_total", "Plan-cache entries evicted by the LRU bound.", m.Engine.Cache.Evictions)
	gauge("plancache_entries", "Plans currently cached.", int64(m.Engine.Cache.Entries))
	fmt.Fprintf(w, "# HELP %s_engine_backend Execution backend, as an info-style gauge.\n", p)
	fmt.Fprintf(w, "# TYPE %s_engine_backend gauge\n", p)
	fmt.Fprintf(w, "%s_engine_backend{kind=%q} 1\n", p, m.Engine.Backend)

	counter("exec_statements_total", "Relational statements evaluated.", m.StmtsRun)
	counter("exec_joins_total", "Hash joins performed.", int64(m.Exec.Joins))
	counter("exec_unions_total", "Two-way unions performed.", int64(m.Exec.Unions))
	counter("exec_lfps_total", "Least-fixpoint operators evaluated.", int64(m.Exec.LFPs))
	counter("exec_lfp_iterations_total", "Fixpoint iterations across all LFP operators.", int64(m.Exec.LFPIters))
	counter("exec_rec_fixes_total", "Multi-relation fixpoints evaluated (SQLGen-R).", int64(m.Exec.RecFixes))
	counter("exec_tuples_total", "Tuples produced across all operators.", int64(m.Exec.TuplesOut))

	if st := m.Store; st != nil {
		gauge("store_epoch", "Sequence number of the published store epoch.", int64(st.Epoch))
		gauge("store_lsn", "Last WAL LSN folded into the published epoch.", int64(st.LSN))
		gauge("store_nodes", "Nodes in the published epoch's catalog.", st.Nodes)
		counter("store_inserts_total", "Subtree inserts applied.", st.Inserts)
		counter("store_deletes_total", "Subtree deletes applied.", st.Deletes)
		counter("store_text_updates_total", "Text updates applied.", st.TextUpdates)
		counter("store_rejected_total", "Updates rejected by validation.", st.Rejected)
		counter("store_wal_bytes_total", "Bytes appended to the write-ahead log.", st.WALBytes)
		counter("store_wal_records_total", "Records appended to the write-ahead log.", st.WALRecords)
		counter("store_replayed_records_total", "WAL records replayed during recovery.", st.Replayed)
		counter("store_checkpoints_total", "Snapshots written.", st.Checkpoints)
		counter("store_checkpoint_failures_total", "Automatic checkpoints that failed.", st.CheckpointFailures)
		counter("store_relabels_total", "Inserts that had to relabel a subtree to make room for their interval labels.", st.Relabels)
		counter("store_relabelled_nodes_total", "Interval labels rewritten by relabels.", st.RelabelledNodes)
		counter("store_catalog_chunks_copied_total", "Node-table chunks copied by updates before writing them.", st.CatalogChunksCopied)
		gauge("store_symbols", "Strings the published epoch's dictionary holds, dead ones included until a compaction.", st.Symbols)
		gauge("store_symbols_live", "Live symbols the last check of the dictionary found.", st.SymbolsLive)
		counter("store_symbol_compactions_total", "Updates that moved the store onto a compact dictionary.", st.SymbolCompactions)
		fmt.Fprintf(w, "# HELP %s_store_apply_seconds Update apply latency (validate+log+apply+publish).\n", p)
		fmt.Fprintf(w, "# TYPE %s_store_apply_seconds histogram\n", p)
		var cum int64
		for i, c := range st.Apply.Buckets {
			cum += c
			le := "+Inf"
			if i < len(st.Apply.Bounds) {
				le = formatBound(st.Apply.Bounds[i])
			}
			fmt.Fprintf(w, "%s_store_apply_seconds_bucket{le=%q} %d\n", p, le, cum)
		}
		fmt.Fprintf(w, "%s_store_apply_seconds_sum %g\n", p, st.Apply.Sum)
		fmt.Fprintf(w, "%s_store_apply_seconds_count %d\n", p, st.Apply.Count)
	}

	if ws := m.Watch; ws != nil {
		gauge("watch_subscriptions", "Active watch subscriptions.", ws.ActiveSubscriptions)
		gauge("watch_views", "Standing views currently maintained.", ws.ActiveViews)
		counter("watch_deltas_total", "Answer deltas published to standing views.", ws.DeltasPublished)
		counter("watch_resyncs_total", "Subscriptions degraded to snapshot resync by buffer overflow.", ws.Resyncs)
		counter("watch_maintained_total", "Updates applied to views incrementally.", ws.Maintained)
		counter("watch_reruns_total", "Updates applied to views by full re-evaluation.", ws.Reruns)
		fmt.Fprintf(w, "# HELP %s_watch_reruns_by_reason_total Full re-evaluations of views, by why the update was not applied as a delta.\n", p)
		fmt.Fprintf(w, "# TYPE %s_watch_reruns_by_reason_total counter\n", p)
		for _, r := range []struct {
			reason string
			n      int64
		}{
			{"non_monotone", ws.RerunsByReason.NonMonotone},
			{"text", ws.RerunsByReason.Text},
			{"epoch_gap", ws.RerunsByReason.EpochGap},
			{"error", ws.RerunsByReason.Error},
		} {
			fmt.Fprintf(w, "%s_watch_reruns_by_reason_total{reason=%q} %d\n", p, r.reason, r.n)
		}
		counter("watch_maintained_tuples_total", "Operator tuples produced by incremental maintenance.", ws.MaintainedTuples)
		counter("watch_rerun_tuples_total", "Operator tuples produced by full re-evaluation fallbacks.", ws.RerunTuples)
		counter("watch_shared_plans_total", "Watch registrations deduplicated onto an existing view with the same plan.", ws.SharedPlans)
		fmt.Fprintf(w, "# HELP %s_watch_propagation_seconds Update-applied to delta-published latency.\n", p)
		fmt.Fprintf(w, "# TYPE %s_watch_propagation_seconds histogram\n", p)
		var cum int64
		for i, c := range ws.Propagation.Buckets {
			cum += c
			le := "+Inf"
			if i < len(ws.Propagation.Bounds) {
				le = formatBound(ws.Propagation.Bounds[i])
			}
			fmt.Fprintf(w, "%s_watch_propagation_seconds_bucket{le=%q} %d\n", p, le, cum)
		}
		fmt.Fprintf(w, "%s_watch_propagation_seconds_sum %g\n", p, ws.Propagation.Sum)
		fmt.Fprintf(w, "%s_watch_propagation_seconds_count %d\n", p, ws.Propagation.Count)
	}

	if cs := m.Cluster; cs != nil {
		gauge("cluster_shards", "Shards in the cluster.", int64(cs.ShardCount))
		fmt.Fprintf(w, "# HELP %s_cluster_mode Partial-failure read mode, as an info-style gauge.\n", p)
		fmt.Fprintf(w, "# TYPE %s_cluster_mode gauge\n", p)
		fmt.Fprintf(w, "%s_cluster_mode{mode=%q,placement=%q} 1\n", p, cs.Mode, cs.Placement)
		counter("cluster_scatter_queries_total", "Queries fanned to every shard.", cs.Scatters)
		counter("cluster_doc_queries_total", "Document-scoped queries routed to one owner shard.", cs.DocQueries)
		counter("cluster_updates_total", "Writes routed to owning shards.", cs.Updates)
		counter("cluster_degraded_answers_total", "Answers served with one or more shards missing.", cs.Degraded)
		perShard := func(name, help, typ string, value func(ClusterShardStats) int64) {
			fmt.Fprintf(w, "# HELP %s_%s %s\n# TYPE %s_%s %s\n", p, name, help, p, name, typ)
			for _, sh := range cs.Shards {
				fmt.Fprintf(w, "%s_%s{shard=%q} %d\n", p, name, sh.Name, value(sh))
			}
		}
		perShard("cluster_shard_up", "Whether the shard is serving (1) or down (0).", "gauge",
			func(sh ClusterShardStats) int64 {
				if sh.Down {
					return 0
				}
				return 1
			})
		perShard("cluster_shard_epoch", "Newest epoch sequence the router has seen the shard publish.", "gauge",
			func(sh ClusterShardStats) int64 { return int64(sh.Epoch) })
		perShard("cluster_shard_queries_total", "Executions routed to the shard.", "counter",
			func(sh ClusterShardStats) int64 { return sh.Queries })
		perShard("cluster_shard_failures_total", "Executions the shard failed.", "counter",
			func(sh ClusterShardStats) int64 { return sh.Failures })
		perShard("cluster_shard_hedges_total", "Retried attempts launched against the shard.", "counter",
			func(sh ClusterShardStats) int64 { return sh.Hedges })
	}

	fmt.Fprintf(w, "# HELP %s_uptime_seconds Seconds since the server started.\n", p)
	fmt.Fprintf(w, "# TYPE %s_uptime_seconds gauge\n", p)
	fmt.Fprintf(w, "%s_uptime_seconds %g\n", p, m.Uptime.Seconds())
}

// formatBound renders a bucket bound the way Prometheus clients do:
// shortest decimal form, no exponent for the usual latency range.
func formatBound(b float64) string {
	if b == math.Trunc(b) {
		return fmt.Sprintf("%g", b)
	}
	return fmt.Sprintf("%v", b)
}
