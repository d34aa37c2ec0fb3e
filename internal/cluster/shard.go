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

// ErrShardDown reports that a shard could answer neither from its primary
// nor from any replica (reads), or that its primary is unavailable (writes —
// replicas are read-only and never accept writes).
var ErrShardDown = errors.New("cluster: shard down: primary unavailable and no usable replica")

const (
	// replicaFeedDepth is the per-replica ship-record buffer. A replica that
	// falls further behind than the buffer absorbs has lost WAL continuity and
	// is marked broken (it would need a full resync); reads stop being routed
	// to it.
	replicaFeedDepth = 1024
	// maxReplicaLag is the staleness bound: a replica more than this many
	// epochs behind its primary is skipped for reads.
	maxReplicaLag = 64
	// shardConcurrency bounds concurrent executions on one in-process shard.
	shardConcurrency = 4
)

// shardClient is what the router needs of a shard, wherever it runs: Shard
// holds its relations in this process, remoteShard speaks to an xpathd over
// HTTP. Which one a Cluster routes over is decided by its constructor (Open,
// Connect) and by nothing else.
type shardClient interface {
	// exec runs the program on the shard's read target for this attempt
	// (attempt > 0 is a hedge or retry and should land elsewhere if the shard
	// has an elsewhere).
	exec(ctx context.Context, prog *ra.Program, attempt int, opts backend.ExecOptions) (shardAnswer, error)
	// update applies one write the router has routed here. base is the node
	// ID the router allocated for an insert; 0 leaves allocation to the shard.
	update(ctx context.Context, req UpdateRequest, base int) (store.UpdateResult, error)
	status(ctx context.Context) shardStatus
	close()
}

// shardAnswer is one shard's answer to one program.
type shardAnswer struct {
	ids         []int
	stats       rdb.Stats
	epoch       uint64 // the epoch the answer was read at
	fromReplica bool
}

// shardStatus is one shard's health row.
type shardStatus struct {
	down         bool // the primary (or the remote process) is not serving
	readable     bool // a read routed here now would find a target
	primaryEpoch uint64
	replicaEpoch uint64
	nodes        int64
	replicaReads int64
	failovers    int64
}

// Shard is one store/engine pair owning a document subset: a primary store
// (the only write target), its read replicas, and a per-shard admission
// semaphore bounding concurrent executions — the per-shard form of the
// server's admission control.
type Shard struct {
	name    string
	primary *store.Store
	reps    []*replica
	sem     chan struct{}
	down    atomic.Bool   // primary considered failed (KillPrimary)
	rr      atomic.Uint32 // read-target round-robin cursor

	replicaReads atomic.Int64
	failovers    atomic.Int64
}

// replica is one in-process read replica: an ephemeral store seeded from the
// primary's boot epoch, applying shipped WAL records in its own goroutine.
type replica struct {
	st      *store.Store
	feed    chan store.ShipRecord
	broken  atomic.Bool
	applied atomic.Int64 // ship records applied
	done    chan struct{}
}

// newShard opens the primary store over the shard's database slice, spins up
// nReplicas read replicas and wires the WAL shipping feed.
func newShard(name string, d *dtd.DTD, db *rdb.DB, nReplicas, minNextID int) (*Shard, error) {
	primary, err := store.Open(store.Config{DTD: d, Seed: db, MinNextID: minNextID})
	if err != nil {
		return nil, fmt.Errorf("cluster: %s primary: %w", name, err)
	}
	sh := &Shard{
		name:    name,
		primary: primary,
		sem:     make(chan struct{}, shardConcurrency),
	}
	// Replicas boot from the primary's current epoch — shared immutable DB
	// pointer, copy-on-write from there — before any update can ship, so the
	// first shipped LSN is exactly the one both sides expect next.
	for i := 0; i < nReplicas; i++ {
		rst, err := store.Open(store.Config{DTD: d, Seed: primary.View().DB, MinNextID: minNextID})
		if err != nil {
			sh.close()
			return nil, fmt.Errorf("cluster: %s replica %d: %w", name, i, err)
		}
		r := &replica{st: rst, feed: make(chan store.ShipRecord, replicaFeedDepth), done: make(chan struct{})}
		go r.run()
		sh.reps = append(sh.reps, r)
	}
	if len(sh.reps) > 0 {
		primary.SetOnShip(sh.ship)
	}
	return sh, nil
}

// ship fans one applied record out to every replica feed without blocking
// the writer: a replica whose buffer is full has lost continuity and is
// marked broken instead of stalling the primary.
func (sh *Shard) ship(rec store.ShipRecord) {
	for _, r := range sh.reps {
		if r.broken.Load() {
			continue
		}
		select {
		case r.feed <- rec:
		default:
			r.broken.Store(true)
		}
	}
}

// run is the replica apply loop.
func (r *replica) run() {
	defer close(r.done)
	for rec := range r.feed {
		if r.broken.Load() {
			continue
		}
		if _, err := r.st.ApplyShipped(rec); err != nil {
			r.broken.Store(true)
			continue
		}
		r.applied.Add(1)
	}
}

// KillPrimary simulates a primary that stopped acking: its store is closed
// (writes fail with store.ErrClosed at the source) and reads fail over to
// replicas, serving their last applied epoch. The failover and shard-kill
// tests drive this.
func (sh *Shard) KillPrimary() {
	if sh.down.CompareAndSwap(false, true) {
		sh.primary.Close()
	}
}

// Down reports whether the primary has been killed.
func (sh *Shard) Down() bool { return sh.down.Load() }

// status reads the shard's health off its stores.
func (sh *Shard) status(context.Context) shardStatus {
	ep := sh.primary.View()
	st := shardStatus{
		down:         sh.Down(),
		readable:     !sh.Down(),
		primaryEpoch: ep.Seq,
		nodes:        int64(ep.DB.NumNodes()),
		replicaReads: sh.replicaReads.Load(),
		failovers:    sh.failovers.Load(),
	}
	for _, r := range sh.reps {
		if r.broken.Load() {
			continue
		}
		st.readable = true
		if seq := r.st.View().Seq; seq > st.replicaEpoch {
			st.replicaEpoch = seq
		}
	}
	return st
}

// readTarget picks the epoch one read should execute against. A healthy
// shard round-robins across the primary and every replica within maxReplicaLag
// epochs of it; attempt > 0 (a hedged retry) advances the cursor so the
// second attempt lands elsewhere. A downed shard serves the freshest usable
// replica and reports the failover.
func (sh *Shard) readTarget(attempt int) (*store.Epoch, bool, error) {
	if sh.down.Load() {
		var best *store.Epoch
		for _, r := range sh.reps {
			if r.broken.Load() {
				continue
			}
			if ep := r.st.View(); best == nil || ep.Seq > best.Seq {
				best = ep
			}
		}
		if best == nil {
			return nil, false, fmt.Errorf("%w (%s)", ErrShardDown, sh.name)
		}
		sh.failovers.Add(1)
		return best, true, nil
	}
	pep := sh.primary.View()
	candidates := []*store.Epoch{pep}
	fromReplica := []bool{false}
	for _, r := range sh.reps {
		if r.broken.Load() {
			continue
		}
		if ep := r.st.View(); pep.Seq-ep.Seq <= maxReplicaLag {
			candidates = append(candidates, ep)
			fromReplica = append(fromReplica, true)
		}
	}
	i := int(sh.rr.Add(uint32(1+attempt))) % len(candidates)
	return candidates[i], fromReplica[i], nil
}

// exec runs one program against the shard under its admission semaphore.
func (sh *Shard) exec(ctx context.Context, prog *ra.Program, attempt int, opts backend.ExecOptions) (shardAnswer, error) {
	ep, fromReplica, err := sh.readTarget(attempt)
	if err != nil {
		return shardAnswer{}, err
	}
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
	if fromReplica {
		sh.replicaReads.Add(1)
	}
	return shardAnswer{ids: res.IDs, stats: res.Stats, epoch: ep.Seq, fromReplica: fromReplica}, nil
}

// update applies a routed write to the primary — replicas are read-only — at
// the node ID the router allocated.
func (sh *Shard) update(_ context.Context, req UpdateRequest, base int) (store.UpdateResult, error) {
	if sh.Down() {
		return store.UpdateResult{}, fmt.Errorf("%w (%s)", ErrShardDown, sh.name)
	}
	switch req.Op {
	case store.OpInsert:
		return sh.primary.InsertSubtreeAt(req.Parent, req.Fragment, base)
	case store.OpDelete:
		return sh.primary.DeleteSubtree(req.Node)
	}
	return sh.primary.UpdateText(req.Node, req.Value)
}

// close releases the primary and every replica.
func (sh *Shard) close() {
	sh.primary.SetOnShip(nil)
	sh.primary.Close()
	for _, r := range sh.reps {
		close(r.feed)
		<-r.done
		r.st.Close()
	}
	sh.reps = nil
}
