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
// per call, not per Snapshot) and reports the scatter's degraded-answer
// metadata and watermark on its Result.
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

// Epoch is 0, "unknown": a cluster pins no epoch per Snapshot (each Execute
// reads every shard at whatever epoch it finds there); the watermark of a
// read is on its Result.
func (s clusterSnap) Epoch() uint64 { return 0 }

func (s clusterSnap) Execute(ctx context.Context, prog *ra.Program, opts backend.ExecOptions) (*backend.Result, error) {
	ans, err := s.c.Exec(ctx, prog, ExecOptions{
		Limits: opts.Limits,
		Trace:  opts.Trace,
		Doc:    opts.Doc,
	})
	if err != nil {
		return nil, err
	}
	return &backend.Result{IDs: ans.IDs, Stats: ans.Stats, Degraded: ans.Degraded, Failed: ans.Failed, Epoch: ans.Watermark}, nil
}

func (s clusterSnap) Close() error { return nil }
