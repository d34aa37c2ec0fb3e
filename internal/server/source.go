package server

import (
	"context"
	"errors"

	"xpath2sql"
	"xpath2sql/internal/backend"
	"xpath2sql/internal/cluster"
	"xpath2sql/internal/store"
)

// Source is the server's data source: where queries execute and, for live
// sources, where updates go. Build one with FromDB, FromStore, FromBackend or
// FromCluster and put it in Config.Source — each constructor fills in what
// its kind of source can do, and the server offers the endpoints that go with
// it. The zero Source is not one.
type Source struct {
	// be is the execution target every query runs on, a batch's members
	// included — the one execution path.
	be xpath2sql.Backend
	// st is the live document store behind the source, enabling the update,
	// watch and snapshot endpoints; nil for read-only sources.
	st *store.Store
	// cl is the cluster behind the source; nil for single-node sources. It
	// enables the update endpoint (writes route to owning shards), decides
	// /readyz by its read mode and lets a batch scatter its queries at once.
	cl *cluster.Cluster
}

// FromDB serves a static shredded database through the bundled in-process
// engine: no update endpoints.
func FromDB(db *xpath2sql.DB) Source {
	return Source{be: backend.NewLocalDB(db)}
}

// FromStore serves a live document store: every request (a whole /v1/batch
// included) pins the store's current epoch — an immutable snapshot — and the
// update, watch and snapshot endpoints are enabled.
func FromStore(st *store.Store) Source {
	return Source{be: storeBackend{st: st}, st: st}
}

// FromBackend serves through a storage-neutral Backend (e.g. the
// database/sql executor shipping generated WITH RECURSIVE text to a real
// RDBMS). Backend sources are read-only.
func FromBackend(b xpath2sql.Backend) Source {
	return Source{be: b}
}

// FromCluster serves a cluster (cluster.Open's in-process shards or
// cluster.Connect's fleet): queries fan out to every shard (or to the single
// owner when the request is document-scoped) and merge by sorted union,
// updates route to the owning shard, and answers carry the cluster's
// degraded-read metadata and watermark. A /v1/batch runs its queries
// concurrently through the cluster.
func FromCluster(c *cluster.Cluster) Source {
	return Source{be: c.Backend(), cl: c}
}

// storeBackend adapts a live store to the Backend interface: Snapshot pins
// the store's current epoch, so one request's whole execution sees one
// consistent version however many updates land meanwhile.
type storeBackend struct {
	st *store.Store
}

func (b storeBackend) Name() string { return "store" }

func (b storeBackend) Load(context.Context, *xpath2sql.DB) error {
	return errors.New("server: a store-backed source is loaded through store updates, not Backend.Load")
}

func (b storeBackend) Snapshot(context.Context) (backend.Snapshot, error) {
	v := b.st.View()
	return backend.AdoptDB(v.DB, v.Seq), nil
}

func (b storeBackend) Close() error { return nil }
