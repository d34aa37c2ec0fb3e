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
// sources, where updates go. Build one with FromDB, FromStore or
// FromBackend and put it in Config.Source — each adapter carries its own
// serving rules (micro-batching availability, read-only-ness), so Config
// validation no longer enumerates field combinations.
//
// The interface is sealed (unexported methods): the three adapters are the
// only implementations, because the server relies on their pinning and
// batching semantics.
type Source interface {
	// execBackend is the execution target every single-query request runs
	// on — the one execution path.
	execBackend() xpath2sql.Backend
	// liveDB resolves the in-process database for one merged micro-batch or
	// /v1/batch run, pinning the current version; nil when the source has no
	// in-process *DB (micro-batching and merged batch execution unavailable).
	liveDB() func() *xpath2sql.DB
	// liveStore returns the live document store behind the source, enabling
	// the update/snapshot endpoints; nil for read-only sources.
	liveStore() *store.Store
	// clusterRouter returns the scatter-gather cluster behind the source;
	// nil for single-node sources. Cluster sources enable the update
	// endpoint (writes route to owning primaries), carry degraded-answer
	// metadata, and route a document-scoped query to the owning shard.
	clusterRouter() *cluster.Cluster
}

// FromDB serves a static shredded database through the bundled in-process
// engine: micro-batching available, no update endpoints.
func FromDB(db *xpath2sql.DB) Source {
	return dbSource{db: db, be: backend.NewLocalDB(db)}
}

// FromStore serves a live document store: every request (and every merged
// batch run) pins the store's current epoch — an immutable snapshot — and
// the update/snapshot endpoints are enabled. Micro-batching available.
func FromStore(st *store.Store) Source {
	return storeSource{st: st, be: storeBackend{st: st}}
}

// FromBackend serves through a storage-neutral Backend (e.g. the
// database/sql executor shipping generated WITH RECURSIVE text to a real
// RDBMS). Backend sources are read-only and cannot micro-batch: the merged
// batch program needs the in-process executor, so /v1/batch runs query by
// query and Config.BatchWindow is rejected.
func FromBackend(b xpath2sql.Backend) Source {
	return backendSource{be: b}
}

// FromCluster serves an N-shard scatter-gather cluster: queries fan out to
// every shard (or to the single owner when the request is document-scoped)
// and merge by sorted union, updates route to the owning primary with
// router-allocated node IDs, and answers carry the cluster's degraded-read
// metadata. No micro-batching (there is no single in-process database to
// merge against); /v1/batch runs query by query through the cluster.
func FromCluster(c *cluster.Cluster) Source {
	return clusterSource{c: c, be: c.Backend()}
}

type dbSource struct {
	db *xpath2sql.DB
	be xpath2sql.Backend
}

func (s dbSource) execBackend() xpath2sql.Backend  { return s.be }
func (s dbSource) liveDB() func() *xpath2sql.DB    { return func() *xpath2sql.DB { return s.db } }
func (s dbSource) liveStore() *store.Store         { return nil }
func (s dbSource) clusterRouter() *cluster.Cluster { return nil }

type storeSource struct {
	st *store.Store
	be xpath2sql.Backend
}

func (s storeSource) execBackend() xpath2sql.Backend { return s.be }
func (s storeSource) liveDB() func() *xpath2sql.DB {
	return func() *xpath2sql.DB { return s.st.View().DB }
}
func (s storeSource) liveStore() *store.Store         { return s.st }
func (s storeSource) clusterRouter() *cluster.Cluster { return nil }

type backendSource struct {
	be xpath2sql.Backend
}

func (s backendSource) execBackend() xpath2sql.Backend  { return s.be }
func (s backendSource) liveDB() func() *xpath2sql.DB    { return nil }
func (s backendSource) liveStore() *store.Store         { return nil }
func (s backendSource) clusterRouter() *cluster.Cluster { return nil }

type clusterSource struct {
	c  *cluster.Cluster
	be xpath2sql.Backend
}

func (s clusterSource) execBackend() xpath2sql.Backend  { return s.be }
func (s clusterSource) liveDB() func() *xpath2sql.DB    { return nil }
func (s clusterSource) liveStore() *store.Store         { return nil }
func (s clusterSource) clusterRouter() *cluster.Cluster { return s.c }

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
