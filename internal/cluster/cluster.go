package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"xpath2sql/internal/backend"
	"xpath2sql/internal/dtd"
	"xpath2sql/internal/obs"
	"xpath2sql/internal/ra"
	"xpath2sql/internal/rdb"
	"xpath2sql/internal/store"
	"xpath2sql/internal/xmltree"
)

// ErrDegraded reports that too few shards answered for the configured read
// mode: any miss under ReadStrict, a majority miss under ReadQuorum, every
// shard under ReadBestEffort. Serving layers map it to 503.
var ErrDegraded = errors.New("cluster: degraded: too few shards answered")

// ReadMode selects how the router treats partial-shard failure on scatter
// reads.
type ReadMode int

const (
	// ReadStrict (the default) fails the whole query when any shard misses.
	ReadStrict ReadMode = iota
	// ReadQuorum serves a degraded answer while a majority of shards answer.
	ReadQuorum
	// ReadBestEffort serves whatever subset answered (at least one shard).
	ReadBestEffort
)

func (m ReadMode) String() string {
	switch m {
	case ReadStrict:
		return "strict"
	case ReadQuorum:
		return "quorum"
	case ReadBestEffort:
		return "best-effort"
	}
	return "ReadMode(?)"
}

// ParseReadMode maps a mode name to a ReadMode.
func ParseReadMode(s string) (ReadMode, error) {
	switch s {
	case "strict", "":
		return ReadStrict, nil
	case "quorum":
		return ReadQuorum, nil
	case "best-effort", "besteffort":
		return ReadBestEffort, nil
	}
	return ReadStrict, fmt.Errorf("cluster: unknown read mode %q (strict, quorum or best-effort)", s)
}

// Config assembles a Cluster.
type Config struct {
	// DTD validates every update and types the relations. Required.
	DTD *dtd.DTD
	// Shards is the number of primary shards (>= 1).
	Shards int
	// Replicas is the number of read replicas per shard (0 = none).
	Replicas int
	// Placement assigns document roots to shards. Default: HashPlacement.
	Placement Placement
	// Mode selects the partial-failure policy for scatter reads.
	Mode ReadMode
	// ShardTimeout bounds each shard's execution of one scatter read
	// (0 = only the request context bounds it).
	ShardTimeout time.Duration
	// HedgeAfter launches a second attempt on another read target when a
	// shard has not answered within this duration (0 = no hedging; failed
	// attempts are still retried once either way).
	HedgeAfter time.Duration
	// MaxReplicaLag is the staleness bound: replicas more than this many
	// epochs behind their primary are skipped for reads. Default 64.
	MaxReplicaLag uint64
	// MaxConcurrentPerShard bounds concurrent executions per shard
	// (the per-shard admission semaphore; 0 = 4).
	MaxConcurrentPerShard int
	// Workers is the default intra-query parallelism per shard execution.
	Workers int
	// Limits is the default resource bound per shard execution.
	Limits obs.Limits
	// Intervals selects the physical path for descendant steps.
	Intervals rdb.IntervalMode
}

// ExecOptions configures one routed execution. Zero values inherit the
// cluster defaults.
type ExecOptions struct {
	// Workers overrides Config.Workers for this run.
	Workers int
	// Limits overrides Config.Limits for this run when non-zero.
	Limits obs.Limits
	// Trace, when non-nil, receives the per-shard statement events (summed
	// per statement across shards) plus one gather event per shard.
	Trace *obs.Trace
	// Doc, when > 0, routes the query to the single shard owning that
	// document root and scopes its execution to the document
	// (backend.ExecOptions.Doc): one execution that costs what the document
	// costs, whatever else the shard holds.
	Doc int
}

// Answer is one routed execution's merged result.
type Answer struct {
	// IDs is the merged answer: ascending node IDs, the disjoint union of
	// per-shard answers.
	IDs []int
	// Stats sums the per-shard execution statistics.
	Stats rdb.Stats
	// Degraded reports that some shard did not answer and the mode allowed
	// serving without it; Failed names the missing shards.
	Degraded bool
	Failed   []string
	// Watermark is the minimum epoch sequence across the views that
	// answered — the bounded-staleness signal (a replica-served shard
	// reports its replica's epoch).
	Watermark uint64
	// ReplicaReads counts shards served by a replica instead of the primary.
	ReplicaReads int
}

// Cluster is an N-shard deployment of the engine with router-side global
// node-ID allocation. Build with Open; it is safe for concurrent use.
type Cluster struct {
	cfg    Config
	shards []*Shard
	dir    *directory

	mu     sync.Mutex // serializes writes and the global ID allocator
	nextID int

	scatters   atomic.Int64
	docQueries atomic.Int64
	updates    atomic.Int64
	degraded   atomic.Int64
	failures   atomic.Int64
}

// Open splits the collection across cfg.Shards primaries under the placement
// function, opens each shard with cfg.Replicas read replicas, and seeds the
// routing directory and the global node-ID allocator (which continues where
// the collection's densest ID left off — exactly where a single store over
// the same collection would).
func Open(cfg Config, collection *rdb.DB) (*Cluster, error) {
	if cfg.DTD == nil {
		return nil, errors.New("cluster: Config.DTD is required")
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Placement == nil {
		cfg.Placement = HashPlacement{}
	}
	if cfg.MaxReplicaLag == 0 {
		cfg.MaxReplicaLag = 64
	}
	parts, owner, err := SplitCollection(cfg.DTD, collection, cfg.Shards, cfg.Placement)
	if err != nil {
		return nil, err
	}
	next := 1
	for id := range owner {
		if id >= next {
			next = id + 1
		}
	}
	c := &Cluster{cfg: cfg, dir: buildDirectory(owner), nextID: next}
	for i, db := range parts {
		sh, err := newShard(i, cfg.DTD, db, cfg.Replicas, cfg.MaxConcurrentPerShard, next)
		if err != nil {
			for _, prev := range c.shards {
				prev.close()
			}
			return nil, err
		}
		c.shards = append(c.shards, sh)
	}
	return c, nil
}

// Shards returns the shard count.
func (c *Cluster) Shards() int { return len(c.shards) }

// Shard returns shard i — the failure-injection seam the kill tests use.
func (c *Cluster) Shard(i int) *Shard { return c.shards[i] }

// Mode returns the configured partial-failure policy.
func (c *Cluster) Mode() ReadMode { return c.cfg.Mode }

// shardResult is one shard's contribution to a scatter.
type shardResult struct {
	shard       *Shard
	res         *backend.Result
	epoch       *store.Epoch
	fromReplica bool
	trace       *obs.Trace
	elapsed     time.Duration
	err         error
}

// Exec routes one translated program: to the owner shard when opts.Doc is
// set, otherwise scattered to every shard and merged by sorted union. It is
// the execution seam both server.FromCluster and the benchmarks drive.
func (c *Cluster) Exec(ctx context.Context, prog *ra.Program, opts ExecOptions) (*Answer, error) {
	if prog == nil {
		return nil, errors.New("cluster: nil program")
	}
	if opts.Doc > 0 {
		return c.execDoc(ctx, prog, opts)
	}
	c.scatters.Add(1)

	results := make([]shardResult, len(c.shards))
	var wg sync.WaitGroup
	for i, sh := range c.shards {
		wg.Add(1)
		go func(i int, sh *Shard) {
			defer wg.Done()
			results[i] = c.execShard(ctx, sh, prog, opts)
		}(i, sh)
	}
	wg.Wait()

	var parts [][]int
	ans := &Answer{}
	answered := 0
	for i := range results {
		r := &results[i]
		if r.err != nil {
			r.shard.failures.Add(1)
			ans.Failed = append(ans.Failed, r.shard.name)
			continue
		}
		answered++
		parts = append(parts, r.res.IDs)
		ans.Stats.Add(r.res.Stats)
		if r.fromReplica {
			ans.ReplicaReads++
		}
		if ans.Watermark == 0 || r.epoch.Seq < ans.Watermark {
			ans.Watermark = r.epoch.Seq
		}
	}
	if err := c.judge(answered, results, ans); err != nil {
		return nil, err
	}
	ans.IDs = mergeSorted(parts)
	if opts.Trace != nil {
		gatherTrace(opts.Trace, results)
	}
	return ans, nil
}

// judge applies the read mode to the scatter outcome: it decides between a
// full answer, a degraded one, and a typed ErrDegraded failure. The first
// shard error is attached so limit and cancellation causes stay inspectable.
func (c *Cluster) judge(answered int, results []shardResult, ans *Answer) error {
	missed := len(c.shards) - answered
	if missed == 0 {
		return nil
	}
	var firstErr error
	for i := range results {
		if results[i].err != nil {
			firstErr = results[i].err
			break
		}
	}
	// A deterministic resource-limit trip is the query's fault, not a shard
	// failure: report it as such regardless of mode (a degraded answer would
	// silently drop the very shards the query overloads).
	var le *obs.LimitError
	if errors.As(firstErr, &le) {
		return firstErr
	}
	fail := func() error {
		c.failures.Add(int64(missed))
		return fmt.Errorf("%w: %d of %d shards missing (%s), mode %s: %v",
			ErrDegraded, missed, len(c.shards), joinNames(ans.Failed), c.cfg.Mode, firstErr)
	}
	switch c.cfg.Mode {
	case ReadStrict:
		return fail()
	case ReadQuorum:
		if answered < len(c.shards)/2+1 {
			return fail()
		}
	case ReadBestEffort:
		if answered == 0 {
			return fail()
		}
	}
	ans.Degraded = true
	c.degraded.Add(1)
	return nil
}

// execDoc runs a document-scoped query: one execution on the owner shard
// with the scope passed down, so the executor reads the document's
// sub-database and the shard's answer is the document's answer as it stands.
func (c *Cluster) execDoc(ctx context.Context, prog *ra.Program, opts ExecOptions) (*Answer, error) {
	c.docQueries.Add(1)
	shardID, ok := c.dir.owner(opts.Doc)
	if !ok {
		return nil, fmt.Errorf("%w: document root %d is not in the cluster directory", store.ErrUnknownNode, opts.Doc)
	}
	sh := c.shards[shardID]
	r := c.execShard(ctx, sh, prog, opts)
	if r.err != nil {
		if errors.Is(r.err, rdb.ErrNotDocumentRoot) {
			// The request named a node that is no document: its fault, not
			// the shard's.
			return nil, fmt.Errorf("%w: %v", store.ErrUnknownNode, r.err)
		}
		sh.failures.Add(1)
		c.failures.Add(1)
		return nil, r.err
	}
	ans := &Answer{IDs: r.res.IDs, Stats: r.res.Stats, Watermark: r.epoch.Seq}
	if r.fromReplica {
		ans.ReplicaReads = 1
	}
	if opts.Trace != nil {
		gatherTrace(opts.Trace, []shardResult{r})
	}
	return ans, nil
}

// execShard runs the program on one shard with a per-shard timeout, one
// retry on a retryable failure, and an optional hedged second attempt racing
// the first after HedgeAfter.
func (c *Cluster) execShard(ctx context.Context, sh *Shard, prog *ra.Program, opts ExecOptions) shardResult {
	sh.queries.Add(1)
	sctx := ctx
	if c.cfg.ShardTimeout > 0 {
		var cancel context.CancelFunc
		sctx, cancel = context.WithTimeout(ctx, c.cfg.ShardTimeout)
		defer cancel()
	}
	attempts := make(chan shardResult, 2)
	launch := func(attempt int) {
		go func() {
			t0 := time.Now()
			var trace *obs.Trace
			if opts.Trace != nil {
				trace = &obs.Trace{}
			}
			beOpts := backend.ExecOptions{
				Workers:   pick(opts.Workers, c.cfg.Workers),
				Limits:    pickLimits(opts.Limits, c.cfg.Limits),
				Trace:     trace,
				Intervals: c.cfg.Intervals,
				Doc:       opts.Doc,
			}
			res, epoch, fromReplica, err := sh.exec(sctx, prog, c.cfg.MaxReplicaLag, attempt, beOpts)
			attempts <- shardResult{shard: sh, res: res, epoch: epoch, fromReplica: fromReplica,
				trace: trace, elapsed: time.Since(t0), err: err}
		}()
	}
	launch(0)

	var first shardResult
	if c.cfg.HedgeAfter > 0 {
		timer := time.NewTimer(c.cfg.HedgeAfter)
		defer timer.Stop()
		select {
		case first = <-attempts:
			if first.err == nil || !retryable(first.err) {
				return first
			}
		case <-timer.C:
			// The straggler keeps running; whichever attempt answers first
			// wins, and the loser's channel slot is buffered so its goroutine
			// never leaks.
			sh.hedges.Add(1)
			launch(1)
			first = <-attempts
			if first.err == nil || !retryable(first.err) {
				return first
			}
			return <-attempts
		}
	} else {
		first = <-attempts
		if first.err == nil || !retryable(first.err) {
			return first
		}
	}
	// One retry on a different read target.
	sh.hedges.Add(1)
	launch(1)
	return <-attempts
}

// retryable reports whether a shard failure may succeed on another read
// target. Deterministic outcomes — resource limits, caller cancellation —
// are returned as-is.
func retryable(err error) bool {
	var le *obs.LimitError
	if errors.As(err, &le) {
		return false
	}
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// UpdateRequest is one routed write.
type UpdateRequest struct {
	Op       string // store.OpInsert, store.OpDelete or store.OpUpdateText
	Parent   int    // insert: parent node
	Node     int    // delete/update_text: target node
	Fragment string // insert: XML fragment
	Value    string // update_text: new value
}

// Update routes one write to the owning shard. Inserts allocate their node
// IDs from the router's global counter — the same sequence a single store
// over the whole collection would assign — and extend the routing directory
// with the new range. Writes are serialized cluster-wide; a write to a
// downed shard returns ErrShardDown.
func (c *Cluster) Update(ctx context.Context, req UpdateRequest) (store.UpdateResult, error) {
	_ = ctx
	c.mu.Lock()
	defer c.mu.Unlock()
	c.updates.Add(1)
	switch req.Op {
	case store.OpInsert:
		frag, err := xmltree.Parse(req.Fragment)
		if err != nil {
			return store.UpdateResult{}, fmt.Errorf("%w: %v", store.ErrBadFragment, err)
		}
		shardID, ok := c.dir.owner(req.Parent)
		if !ok {
			return store.UpdateResult{}, fmt.Errorf("%w: node %d is not in the cluster directory", store.ErrUnknownNode, req.Parent)
		}
		sh := c.shards[shardID]
		if sh.Down() {
			return store.UpdateResult{}, fmt.Errorf("%w (%s)", ErrShardDown, sh.name)
		}
		base := c.nextID
		res, err := sh.primary.InsertSubtreeAt(req.Parent, req.Fragment, base)
		if err != nil {
			return store.UpdateResult{}, err
		}
		n := len(frag.Nodes())
		c.nextID = base + n
		c.dir.add(base, base+n, shardID)
		return res, nil
	case store.OpDelete, store.OpUpdateText:
		shardID, ok := c.dir.owner(req.Node)
		if !ok {
			return store.UpdateResult{}, fmt.Errorf("%w: node %d is not in the cluster directory", store.ErrUnknownNode, req.Node)
		}
		sh := c.shards[shardID]
		if sh.Down() {
			return store.UpdateResult{}, fmt.Errorf("%w (%s)", ErrShardDown, sh.name)
		}
		if req.Op == store.OpDelete {
			return sh.primary.DeleteSubtree(req.Node)
		}
		return sh.primary.UpdateText(req.Node, req.Value)
	}
	return store.UpdateResult{}, fmt.Errorf("cluster: unknown update op %q", req.Op)
}

// Stats snapshots the cluster's counters for the metrics endpoint.
func (c *Cluster) Stats() obs.ClusterStats {
	s := obs.ClusterStats{
		ShardCount:   len(c.shards),
		ReplicaCount: c.cfg.Replicas,
		Mode:         c.cfg.Mode.String(),
		Placement:    c.cfg.Placement.Name(),
		Scatters:     c.scatters.Load(),
		DocQueries:   c.docQueries.Load(),
		Updates:      c.updates.Load(),
		Degraded:     c.degraded.Load(),
		Failures:     c.failures.Load(),
	}
	for _, sh := range c.shards {
		pw, rw := sh.Watermark()
		s.Shards = append(s.Shards, obs.ClusterShardStats{
			Name:         sh.name,
			Down:         sh.Down(),
			PrimaryEpoch: pw,
			ReplicaEpoch: rw,
			Queries:      sh.queries.Load(),
			Failures:     sh.failures.Load(),
			ReplicaReads: sh.replicaReads.Load(),
			Failovers:    sh.failovers.Load(),
			Hedges:       sh.hedges.Load(),
			Nodes:        int64(sh.primary.View().DB.NumNodes()),
		})
	}
	return s
}

// Close releases every shard and replica.
func (c *Cluster) Close() error {
	for _, sh := range c.shards {
		sh.close()
	}
	return nil
}

// mergeSorted unions ascending, pairwise-disjoint ID slices into one
// ascending slice — the (F, T, V) answer-model merge. Duplicates (possible
// only if shards overlap, which placement forbids) are dropped anyway, so the
// merge is safe for any input.
func mergeSorted(parts [][]int) []int {
	switch len(parts) {
	case 0:
		return []int{}
	case 1:
		out := parts[0]
		if out == nil {
			out = []int{}
		}
		return out
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]int, 0, total)
	cursors := make([]int, len(parts))
	for {
		best, bestID := -1, 0
		for i, p := range parts {
			if cursors[i] >= len(p) {
				continue
			}
			if id := p[cursors[i]]; best == -1 || id < bestID {
				best, bestID = i, id
			}
		}
		if best == -1 {
			return out
		}
		cursors[best]++
		if n := len(out); n > 0 && out[n-1] == bestID {
			continue
		}
		out = append(out, bestID)
	}
}

// gatherTrace folds per-shard traces into the request trace: same-name
// statement events are summed across shards (one aggregate event per plan
// statement), and each answering shard contributes one gather event carrying
// its answer size and wall time.
func gatherTrace(dst *obs.Trace, results []shardResult) {
	byStmt := map[string]int{}
	for i := range results {
		r := &results[i]
		if r.err != nil || r.trace == nil {
			continue
		}
		for _, ev := range r.trace.Events {
			if j, ok := byStmt[ev.Stmt]; ok {
				agg := &dst.Events[j]
				agg.In += ev.In
				agg.Out += ev.Out
				agg.Ops.Add(ev.Ops)
				agg.Wall += ev.Wall
				continue
			}
			byStmt[ev.Stmt] = len(dst.Events)
			dst.Add(ev)
		}
	}
	for i := range results {
		r := &results[i]
		if r.err != nil {
			continue
		}
		out := 0
		if r.res != nil {
			out = len(r.res.IDs)
		}
		dst.Add(obs.StmtEvent{Stmt: r.shard.name, Op: "gather", Out: out, Wall: r.elapsed})
	}
}

func joinNames(names []string) string {
	if len(names) == 0 {
		return "none"
	}
	out := names[0]
	for _, n := range names[1:] {
		out += ", " + n
	}
	return out
}

func pick(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

func pickLimits(v, def obs.Limits) obs.Limits {
	if v.Unlimited() {
		return def
	}
	return v
}
