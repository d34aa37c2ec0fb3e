package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"xpath2sql/internal/backend"
	"xpath2sql/internal/ra"
	"xpath2sql/internal/rdb"
	"xpath2sql/internal/store"
)

// RemoteShard names one running xpathd of a fleet: its base URL and the
// -node-id-base it was booted on. The bases must be distinct; the shard owns
// every node ID from its base up to the next shard's.
type RemoteShard struct {
	URL  string
	Base int
}

// ShardError is a remote shard's 4xx answer: the request's fault, as that
// shard judged it (a parse error, a resource limit, an unknown node, a full
// admission queue). The router does not retry it and does not degrade around
// it, and a serving layer forwards Status and Kind as they are.
type ShardError struct {
	Shard  string
	Status int    // the shard's HTTP status
	Kind   string // the "kind" of its error body
	Msg    string
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("%s: %s (%d %s)", e.Shard, e.Msg, e.Status, e.Kind)
}

// Connect builds the router over a running fleet. The same Cluster routes —
// scatter, retry, judge, merge, document and update routing are the code Open
// runs — but the shards hold the relations and allocate their own node IDs,
// each inside the range its base opens, so the directory is seeded with those
// ranges and the router allocates nothing. Of cfg, Mode and ShardTimeout
// apply; what bounds an execution (workers, limits, admission) is each shard's
// own configuration.
func Connect(cfg Config, shards []RemoteShard) (*Cluster, error) {
	if len(shards) == 0 {
		return nil, errors.New("cluster: Connect needs at least one shard")
	}
	order := make([]int, len(shards))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return shards[order[a]].Base < shards[order[b]].Base })
	urls := make([]string, len(shards))
	dir := &directory{}
	for k, i := range order {
		hi := math.MaxInt
		if k+1 < len(order) {
			if hi = shards[order[k+1]].Base; hi == shards[i].Base {
				return nil, fmt.Errorf("cluster: shards %d and %d share node-ID base %d", i, order[k+1], hi)
			}
		}
		dir.add(shards[i].Base, hi, i)
		urls[i] = shards[i].URL
	}
	return connect(cfg, urls, dir)
}

// connect is Connect over a given directory.
func connect(cfg Config, urls []string, dir *directory) (*Cluster, error) {
	cfg.Shards, cfg.Placement = len(urls), nil
	client := &http.Client{Transport: &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 16}}
	c := &Cluster{cfg: cfg, dir: dir}
	for i, u := range urls {
		u = strings.TrimRight(u, "/")
		if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
			return nil, fmt.Errorf("cluster: shard URL %q must be http(s)", u)
		}
		name := fmt.Sprintf("shard%d", i)
		c.shards = append(c.shards, &routedShard{name: name, shardClient: &remoteShard{name: name, url: u, client: client}})
	}
	return c, nil
}

// remoteShard is the shard client for an xpathd process: /v1/query with the
// program's canonical query text, /v1/update, /readyz.
type remoteShard struct {
	name   string
	url    string
	client *http.Client
	// epoch is the newest epoch decoded from a /v1/query watermark or a
	// /v1/update ack: what the router has seen of the shard, at no extra call.
	epoch atomic.Uint64
}

// sawEpoch records an epoch the shard reported, keeping the newest.
func (r *remoteShard) sawEpoch(epoch uint64) {
	for {
		cur := r.epoch.Load()
		if epoch <= cur || r.epoch.CompareAndSwap(cur, epoch) {
			return
		}
	}
}

// post sends one JSON request and decodes a 200 answer into out. A 4xx comes
// back as *ShardError; anything else that is not 200 — a transport error, a
// 5xx, a body that does not decode — is the shard's failure.
func (r *remoteShard) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("%s: %w", r.name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct{ Error, Kind string }
		blob, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20)) // a truncated error body is still an error
		_ = json.Unmarshal(blob, &e)                            // a body that is not the API's reads as no kind
		if resp.StatusCode >= 400 && resp.StatusCode < 500 && e.Kind != "" {
			return &ShardError{Shard: r.name, Status: resp.StatusCode, Kind: e.Kind, Msg: e.Error}
		}
		return fmt.Errorf("%s: %s answered %d: %s", r.name, path, resp.StatusCode, bytes.TrimSpace(blob))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%s: malformed answer from %s: %w", r.name, path, err)
	}
	return nil
}

// timeoutMS is the budget left on ctx as the API's timeout_ms (0 = none): the
// shard gives up when the router would stop listening.
func timeoutMS(ctx context.Context) int {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	return max(1, int(time.Until(dl)/time.Millisecond))
}

func (r *remoteShard) exec(ctx context.Context, prog *ra.Program, opts backend.ExecOptions) (shardAnswer, error) {
	// JSON cannot carry other bytes: they would arrive as U+FFFD and select
	// different nodes.
	if prog.Query == "" || !utf8.ValidString(prog.Query) {
		return shardAnswer{}, fmt.Errorf("cluster: %s executes query text, and the program carries none it can ship (%q)", r.name, prog.Query)
	}
	in := struct {
		Query     string `json:"query"`
		Doc       int    `json:"doc,omitempty"`
		TimeoutMS int    `json:"timeout_ms,omitempty"`
	}{prog.Query, opts.Doc, timeoutMS(ctx)}
	var out struct {
		IDs       []int     `json:"ids"`
		Stats     rdb.Stats `json:"stats"`
		Watermark uint64    `json:"watermark"`
	}
	if err := r.post(ctx, "/v1/query", in, &out); err != nil {
		return shardAnswer{}, err
	}
	r.sawEpoch(out.Watermark)
	return shardAnswer{ids: out.IDs, stats: out.Stats, epoch: out.Watermark}, nil
}

// wireOp spells the store's operations the way /v1/update does.
var wireOp = map[string]string{
	store.OpInsert:     "insert_subtree",
	store.OpDelete:     "delete_subtree",
	store.OpUpdateText: "update_text",
}

func (r *remoteShard) update(ctx context.Context, req UpdateRequest, _ int) (store.UpdateResult, error) {
	in := struct {
		Op        string `json:"op"`
		Parent    int    `json:"parent,omitempty"`
		Node      int    `json:"node,omitempty"`
		Fragment  string `json:"fragment,omitempty"`
		Value     string `json:"value"`
		TimeoutMS int    `json:"timeout_ms,omitempty"`
	}{wireOp[req.Op], req.Parent, req.Node, req.Fragment, req.Value, timeoutMS(ctx)}
	var out struct {
		NodeID int    `json:"node_id"`
		Nodes  int    `json:"nodes"`
		Epoch  uint64 `json:"epoch"`
		LSN    uint64 `json:"lsn"`
	}
	if err := r.post(ctx, "/v1/update", in, &out); err != nil {
		return store.UpdateResult{}, err
	}
	r.sawEpoch(out.Epoch)
	return store.UpdateResult{NodeID: out.NodeID, Nodes: out.Nodes, Epoch: out.Epoch, LSN: out.LSN}, nil
}

// status asks the shard's /readyz and adds the epoch the client last saw; the
// shard's size is its own /metrics to report (store_nodes).
func (r *remoteShard) status(ctx context.Context) shardStatus {
	up := false
	if req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.url+"/readyz", nil); err == nil {
		if resp, err := r.client.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			up = resp.StatusCode == http.StatusOK
		}
	}
	return shardStatus{down: !up, epoch: r.epoch.Load()}
}

func (r *remoteShard) close() { r.client.CloseIdleConnections() }
