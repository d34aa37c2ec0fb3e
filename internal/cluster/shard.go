package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"xpath2sql/internal/backend"
	"xpath2sql/internal/dtd"
	"xpath2sql/internal/ra"
	"xpath2sql/internal/rdb"
	"xpath2sql/internal/store"
)

// ErrShardDown reports that a shard's store is not serving: it answers
// neither reads nor writes until it is back.
var ErrShardDown = errors.New("cluster: shard down")

// shardConcurrency bounds concurrent executions on one in-process shard.
const shardConcurrency = 4

// shardClient is what the router needs of a shard, wherever it runs: Shard
// holds its relations in this process, remoteShard speaks to an xpathd over
// HTTP. Which one a Cluster routes over is decided by its constructor (Open,
// Connect) and by nothing else.
type shardClient interface {
	// exec runs the program on the shard's store.
	exec(ctx context.Context, prog *ra.Program, opts backend.ExecOptions) (shardAnswer, error)
	// update applies one write the router has routed here. base is the node
	// ID the router allocated for an insert; 0 leaves allocation to the shard.
	update(ctx context.Context, req UpdateRequest, base int) (store.UpdateResult, error)
	status(ctx context.Context) shardStatus
	close()
}

// shardAnswer is one shard's answer to one program.
type shardAnswer struct {
	ids   []int
	stats rdb.Stats
	epoch uint64 // the epoch the answer was read at
}

// shardStatus is what the router knows of a shard between requests: the two
// facts either client can report.
type shardStatus struct {
	down  bool   // the store (or the remote process) is not serving
	epoch uint64 // the newest epoch the client has seen the shard publish
}

// Shard is one store/engine pair owning a document subset, behind a per-shard
// admission semaphore bounding concurrent executions — the per-shard form of
// the server's admission control.
type Shard struct {
	name string
	st   *store.Store
	sem  chan struct{}
	down atomic.Bool // the store considered failed (Kill)
}

// newShard opens the store over the shard's database slice.
func newShard(name string, d *dtd.DTD, db *rdb.DB, minNextID int) (*Shard, error) {
	st, err := store.Open(store.Config{DTD: d, Seed: db, MinNextID: minNextID})
	if err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", name, err)
	}
	return &Shard{name: name, st: st, sem: make(chan struct{}, shardConcurrency)}, nil
}

// Kill simulates a shard that stopped answering: its store is closed (writes
// fail with store.ErrClosed at the source) and reads and writes routed to it
// return ErrShardDown. The degraded-mode tests drive this.
func (sh *Shard) Kill() {
	if sh.down.CompareAndSwap(false, true) {
		sh.st.Close()
	}
}

// status reads the shard's health off its store.
func (sh *Shard) status(context.Context) shardStatus {
	return shardStatus{down: sh.down.Load(), epoch: sh.st.View().Seq}
}

// exec runs one program against the store's current epoch under the shard's
// admission semaphore.
func (sh *Shard) exec(ctx context.Context, prog *ra.Program, opts backend.ExecOptions) (shardAnswer, error) {
	if sh.down.Load() {
		return shardAnswer{}, fmt.Errorf("%w (%s)", ErrShardDown, sh.name)
	}
	ep := sh.st.View()
	select {
	case sh.sem <- struct{}{}:
	case <-ctx.Done():
		return shardAnswer{}, ctx.Err()
	}
	defer func() { <-sh.sem }()
	res, err := backend.AdoptDB(ep.DB, ep.Seq).Execute(ctx, prog, opts)
	if err != nil {
		return shardAnswer{}, err
	}
	return shardAnswer{ids: res.IDs, stats: res.Stats, epoch: ep.Seq}, nil
}

// update applies a routed write at the node ID the router allocated.
func (sh *Shard) update(_ context.Context, req UpdateRequest, base int) (store.UpdateResult, error) {
	if sh.down.Load() {
		return store.UpdateResult{}, fmt.Errorf("%w (%s)", ErrShardDown, sh.name)
	}
	switch req.Op {
	case store.OpInsert:
		return sh.st.InsertSubtreeAt(req.Parent, req.Fragment, base)
	case store.OpDelete:
		return sh.st.DeleteSubtree(req.Node)
	}
	return sh.st.UpdateText(req.Node, req.Value)
}

func (sh *Shard) close() { sh.st.Close() }
