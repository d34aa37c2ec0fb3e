package cluster

import (
	"context"
	"errors"

	"xpath2sql/internal/backend"
	"xpath2sql/internal/ra"
	"xpath2sql/internal/rdb"
)

// Backend adapts the cluster to the storage-neutral backend interface, so
// every existing execution path — Translation.ExecuteOn, the server's batch
// handler, the differential harnesses — can run against an N-shard deployment
// unchanged. Each Execute scatters independently (per-shard epochs are pinned
// per call, not per Snapshot); degraded-answer metadata is available only
// through Cluster.Exec, so serving layers that surface it call the cluster
// directly and use this adapter for everything else.
func (c *Cluster) Backend() backend.Backend { return clusterBackend{c: c} }

type clusterBackend struct{ c *Cluster }

func (b clusterBackend) Name() string { return "cluster" }

func (b clusterBackend) Load(context.Context, *rdb.DB) error {
	return errors.New("cluster: a cluster is loaded at Open and written through Update, not Backend.Load")
}

func (b clusterBackend) Snapshot(context.Context) (backend.Snapshot, error) {
	return clusterSnap{c: b.c}, nil
}

// Close is a no-op: the cluster's owner closes it (the adapter is one of
// several views onto it).
func (b clusterBackend) Close() error { return nil }

type clusterSnap struct{ c *Cluster }

// Epoch reports the scatter watermark: the minimum primary epoch across
// shards.
func (s clusterSnap) Epoch() uint64 {
	var min uint64
	for i, sh := range s.c.shards {
		p, _ := sh.Watermark()
		if i == 0 || p < min {
			min = p
		}
	}
	return min
}

func (s clusterSnap) Execute(ctx context.Context, prog *ra.Program, opts backend.ExecOptions) (*backend.Result, error) {
	ans, err := s.c.Exec(ctx, prog, ExecOptions{
		Workers: opts.Workers,
		Limits:  opts.Limits,
		Trace:   opts.Trace,
		Doc:     opts.Doc,
	})
	if err != nil {
		return nil, err
	}
	return &backend.Result{IDs: ans.IDs, Stats: ans.Stats}, nil
}

func (s clusterSnap) Close() error { return nil }
