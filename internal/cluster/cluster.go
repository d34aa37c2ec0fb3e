package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xpath2sql/internal/backend"
	"xpath2sql/internal/dtd"
	"xpath2sql/internal/obs"
	"xpath2sql/internal/ra"
	"xpath2sql/internal/rdb"
	"xpath2sql/internal/store"
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
	// Shards is the number of shards (>= 1).
	Shards int
	// Placement assigns document roots to shards. Default: HashPlacement.
	Placement Placement
	// Mode selects the partial-failure policy for scatter reads.
	Mode ReadMode
	// ShardTimeout bounds each shard's execution of one scatter read
	// (0 = only the request context bounds it).
	ShardTimeout time.Duration
	// Intervals selects the physical path for descendant steps.
	Intervals rdb.IntervalMode
}

// ExecOptions configures one routed execution.
type ExecOptions struct {
	// Workers is ignored; kept only because benchmark/wl_docscope.go sets
	// it; ROADMAP item 1(1) deletes it. Every shard execution is serial.
	Workers int
	// Limits bounds each in-process shard execution.
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
	// Watermark is the minimum epoch sequence across the shards that
	// answered: the answer holds every write acknowledged at or below it.
	Watermark uint64
}

// Cluster is the router over N shards: it sends a translated program to the
// shard that owns the document, or to all of them and merges the node-ID
// sets, and sends a write to the shard that owns the node. Open builds it over
// in-process shards with router-side global node-ID allocation, Connect over a
// running xpathd fleet; it is safe for concurrent use.
type Cluster struct {
	cfg    Config
	shards []*routedShard
	dir    *directory

	// Open only: the router allocates node IDs, from nextID, and serializes
	// writes to do so. Under Connect each shard allocates inside its own range.
	allocates bool
	mu        sync.Mutex
	nextID    int

	scatters   atomic.Int64
	docQueries atomic.Int64
	updates    atomic.Int64
	degraded   atomic.Int64
}

// routedShard is a shard as the router sees it: the client, the name answers
// and metrics report it by, and the router's own counters for it.
type routedShard struct {
	shardClient
	name string

	queries  atomic.Int64
	failures atomic.Int64
	hedges   atomic.Int64
}

// Open splits the collection across cfg.Shards stores under the placement
// function and seeds the routing directory and the global node-ID allocator
// (which continues where the collection's densest ID left off — exactly where
// a single store over the same collection would).
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
	c := &Cluster{cfg: cfg, dir: buildDirectory(owner), allocates: true, nextID: next}
	for i, db := range parts {
		name := fmt.Sprintf("shard%d", i)
		sh, err := newShard(name, cfg.DTD, db, next)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.shards = append(c.shards, &routedShard{shardClient: sh, name: name})
	}
	return c, nil
}

// Shards returns the shard count.
func (c *Cluster) Shards() int { return len(c.shards) }

// Shard returns in-process shard i — the failure-injection seam the kill
// tests use on a cluster built by Open.
func (c *Cluster) Shard(i int) *Shard { return c.shards[i].shardClient.(*Shard) }

// shardResult is one shard's contribution to a scatter.
type shardResult struct {
	shard   *routedShard
	ans     shardAnswer
	trace   *obs.Trace
	elapsed time.Duration
	err     error
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
		go func(i int, sh *routedShard) {
			defer wg.Done()
			results[i] = c.execShard(ctx, sh, prog, opts)
		}(i, sh)
	}
	wg.Wait()

	var parts [][]int
	ans := &Answer{}
	for i := range results {
		r := &results[i]
		if r.err != nil {
			ans.Failed = append(ans.Failed, r.shard.name)
			continue
		}
		parts = append(parts, r.ans.ids)
		ans.absorb(r.ans, len(parts) == 1)
	}
	if err := c.judge(results, ans); err != nil {
		return nil, err
	}
	ans.IDs = mergeSorted(parts)
	if opts.Trace != nil {
		gatherTrace(opts.Trace, results)
	}
	return ans, nil
}

// absorb accounts one shard's answer; the watermark is the oldest epoch read.
func (a *Answer) absorb(sa shardAnswer, first bool) {
	a.Stats.Add(sa.stats)
	if first || sa.epoch < a.Watermark {
		a.Watermark = sa.epoch
	}
}

// tolerates reports whether the read mode serves with only this many of the
// shards answering: all of them under ReadStrict, a majority under
// ReadQuorum, one under ReadBestEffort.
func (c *Cluster) tolerates(answering int) bool {
	switch c.cfg.Mode {
	case ReadQuorum:
		return answering >= len(c.shards)/2+1
	case ReadBestEffort:
		return answering >= 1
	}
	return answering == len(c.shards)
}

// judge applies the read mode to the scatter outcome: it decides between a
// full answer, a degraded one, and a typed ErrDegraded failure. The first
// shard error is attached so the cause stays inspectable.
func (c *Cluster) judge(results []shardResult, ans *Answer) error {
	missed := len(ans.Failed)
	if missed == 0 {
		return nil
	}
	var firstErr error
	for i := range results {
		err := results[i].err
		// The request's own fault is reported as such regardless of mode (a
		// degraded answer would silently drop the very shards the query
		// overloads).
		if err != nil && requestFault(err) {
			return err
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if !c.tolerates(len(c.shards) - missed) {
		return fmt.Errorf("%w: %d of %d shards missing (%s), mode %s: %v",
			ErrDegraded, missed, len(c.shards), strings.Join(ans.Failed, ", "), c.cfg.Mode, firstErr)
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
	r := c.execShard(ctx, c.shards[shardID], prog, opts)
	if r.err != nil {
		if errors.Is(r.err, rdb.ErrNotDocumentRoot) {
			// The request named a node that is no document: its fault, not
			// the shard's.
			return nil, fmt.Errorf("%w: %v", store.ErrUnknownNode, r.err)
		}
		return nil, r.err
	}
	ans := &Answer{IDs: r.ans.ids}
	ans.absorb(r.ans, true)
	if opts.Trace != nil {
		gatherTrace(opts.Trace, []shardResult{r})
	}
	return ans, nil
}

// execShard is tryShard, counted: the query on the shard, and the failure if
// it is the shard's.
func (c *Cluster) execShard(ctx context.Context, sh *routedShard, prog *ra.Program, opts ExecOptions) shardResult {
	sh.queries.Add(1)
	r := c.tryShard(ctx, sh, prog, opts)
	if r.err != nil && !requestFault(r.err) {
		sh.failures.Add(1)
	}
	return r
}

// tryShard runs the program on one shard under the per-shard timeout, with
// one retry on a retryable failure. The retry follows the failure and never
// races a slow first attempt: a shard is one store, so a second attempt beside
// the first would re-run the program on exactly the store that is slow.
func (c *Cluster) tryShard(ctx context.Context, sh *routedShard, prog *ra.Program, opts ExecOptions) shardResult {
	if c.cfg.ShardTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.cfg.ShardTimeout)
		defer cancel()
	}
	call := func() shardResult {
		t0 := time.Now()
		var trace *obs.Trace
		if opts.Trace != nil {
			trace = &obs.Trace{}
		}
		ans, err := sh.exec(ctx, prog, backend.ExecOptions{
			Limits:    opts.Limits,
			Trace:     trace,
			Intervals: c.cfg.Intervals,
			Doc:       opts.Doc,
		})
		return shardResult{shard: sh, ans: ans, trace: trace, elapsed: time.Since(t0), err: err}
	}
	r := call()
	if r.err != nil && retryable(r.err) {
		sh.hedges.Add(1)
		r = call()
	}
	return r
}

// requestFault reports a shard outcome that is the request's doing, not the
// shard's, and would reproduce on a second call: a resource-limit trip, a
// node that is no document, a remote shard's 4xx — its 429 included, which is
// forwarded to the caller: a shard is one store, so there is nowhere else to
// take the request. It is not retried, not degraded around and not counted
// against the shard.
func requestFault(err error) bool {
	var le *obs.LimitError
	var se *ShardError
	return errors.As(err, &le) || errors.As(err, &se) || errors.Is(err, rdb.ErrNotDocumentRoot)
}

// retryable reports whether a shard failure may succeed on a second call: not
// the request's own fault, not the caller's cancellation.
func retryable(err error) bool {
	return !requestFault(err) && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// UpdateRequest is one routed write.
type UpdateRequest struct {
	Op       string // store.OpInsert, store.OpDelete or store.OpUpdateText
	Parent   int    // insert: parent node
	Node     int    // delete/update_text: target node
	Fragment string // insert: XML fragment
	Value    string // update_text: new value
}

// Update routes one write to the shard owning its target node. Under Open an
// insert takes its node IDs from the router's global counter — the same
// sequence a single store over the whole collection would assign — and writes
// are serialized cluster-wide; under Connect the owner allocates. Either way
// the directory learns the new range from the ack. A write to a downed shard
// returns ErrShardDown.
func (c *Cluster) Update(ctx context.Context, req UpdateRequest) (store.UpdateResult, error) {
	c.updates.Add(1)
	target := req.Node
	switch req.Op {
	case store.OpInsert:
		target = req.Parent
	case store.OpDelete, store.OpUpdateText:
	default:
		return store.UpdateResult{}, fmt.Errorf("cluster: unknown update op %q", req.Op)
	}
	shardID, ok := c.dir.owner(target)
	if !ok {
		return store.UpdateResult{}, fmt.Errorf("%w: node %d is not in the cluster directory", store.ErrUnknownNode, target)
	}
	base := 0
	if c.allocates {
		c.mu.Lock()
		defer c.mu.Unlock()
		base = c.nextID
	}
	res, err := c.shards[shardID].update(ctx, req, base)
	if err != nil || req.Op != store.OpInsert {
		return res, err
	}
	c.dir.add(res.NodeID, res.NodeID+res.Nodes, shardID)
	if c.allocates {
		c.nextID = res.NodeID + res.Nodes
	}
	return res, nil
}

// probe asks every shard for its status at once, so one unreachable shard
// costs the caller one timeout, not one per shard.
func (c *Cluster) probe(ctx context.Context) []shardStatus {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	out := make([]shardStatus, len(c.shards))
	var wg sync.WaitGroup
	for i, sh := range c.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = sh.status(ctx)
		}()
	}
	wg.Wait()
	return out
}

// Ready reports whether a scatter read issued now would be served under the
// read mode — the same rule judge applies to an answer. Serving layers map an
// error to 503 on /readyz.
func (c *Cluster) Ready(ctx context.Context) error {
	var down []string
	for i, st := range c.probe(ctx) {
		if st.down {
			down = append(down, c.shards[i].name)
		}
	}
	if up := len(c.shards) - len(down); !c.tolerates(up) {
		return fmt.Errorf("%w: %d of %d shards up, mode %s (down: %s)",
			ErrDegraded, up, len(c.shards), c.cfg.Mode, strings.Join(down, ", "))
	}
	return nil
}

// Stats snapshots the cluster's counters for the metrics endpoint.
func (c *Cluster) Stats() obs.ClusterStats {
	s := obs.ClusterStats{
		ShardCount: len(c.shards),
		Mode:       c.cfg.Mode.String(),
		Placement:  "external", // a fleet: whoever loaded the shards placed the documents
		Scatters:   c.scatters.Load(),
		DocQueries: c.docQueries.Load(),
		Updates:    c.updates.Load(),
		Degraded:   c.degraded.Load(),
	}
	if c.cfg.Placement != nil {
		s.Placement = c.cfg.Placement.Name()
	}
	for i, st := range c.probe(context.Background()) {
		sh := c.shards[i]
		row := obs.ClusterShardStats{
			Name:     sh.name,
			Down:     st.down,
			Epoch:    st.epoch,
			Queries:  sh.queries.Load(),
			Failures: sh.failures.Load(),
			Hedges:   sh.hedges.Load(),
		}
		s.Failures += row.Failures
		s.Shards = append(s.Shards, row)
	}
	return s
}

// Close releases every shard.
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
		dst.Add(obs.StmtEvent{Stmt: r.shard.name, Op: "gather", Out: len(r.ans.ids), Wall: r.elapsed})
	}
}
