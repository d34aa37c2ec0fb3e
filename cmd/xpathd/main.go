// Command xpathd is the query service daemon: it loads a DTD, builds a live
// document store — booting from a snapshot + WAL tail when one exists, or by
// stream-shredding (or generating) a document otherwise — wraps it in an
// Engine (plan cache, limits) and serves XPath queries
// and updates over HTTP via internal/server.
//
//	POST /v1/query       {"query": "dept//project"}          → answer IDs
//	POST /v1/batch       {"queries": ["a//b", "a//c"]}       → answers, one version
//	POST /v1/translate   {"query": "...", "dialect": "db2"}  → SQL text
//	POST /v1/update      {"op": "insert_subtree", ...}       → applied epoch/LSN
//	POST /v1/watch       {"query": "dept//course"}           → SSE snapshot+deltas
//	POST /admin/snapshot                                     → checkpoint now
//	GET  /healthz  /readyz  /metrics
//
// Saturation answers 429 Retry-After (admission semaphore + bounded queue),
// user faults map to 4xx (never 500), and SIGINT/SIGTERM drains in-flight
// requests before exit.
//
// Durability: with -wal-dir every update is WAL-logged before it is applied
// and the daemon checkpoints periodically; after a crash (even kill -9) the
// next start recovers from the newest snapshot plus the WAL tail and answers
// identically. Without -wal-dir the store is ephemeral: updates work, but
// nothing survives a restart.
//
// Usage:
//
//	xpathd -dtd dept.dtd -xml doc.xml [-addr :8080]
//	xpathd -dtd dept.dtd -gen 100000 [-gen-xl 12] [-gen-xr 4] [-seed 42]
//	xpathd -dtd dept.dtd -wal-dir ./data [-xml doc.xml]   # recover if data exists
//	xpathd -dtd dept.dtd -xml doc.xml -backend sql [-sql-driver fakesql]
//	       [-sql-dsn memory://xpathd]                 # read-only SQL executor
//	xpathd -dtd dept.dtd -snapshot snap.rdb [-wal-dir ./data]
//	       [-fsync always|interval|never] [-fsync-interval 50ms]
//	       [-checkpoint-every 1000]
//	       [-strategy X] [-cache-size n]
//	       [-max-concurrent n] [-queue-depth n] [-request-timeout 30s]
//	       [-watch-max-subs 1024] [-watch-buffer 64]
//	       [-max-lfp-iters n] [-max-tuples n] [-drain-timeout 10s]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"runtime"
	"strings"
	"time"

	"xpath2sql"
	"xpath2sql/internal/backend/fakedb" // registers the hermetic "fakesql" driver
	"xpath2sql/internal/cluster"
	"xpath2sql/internal/server"
	"xpath2sql/internal/store"
)

// options collects every flag; run takes it whole so the list can grow
// without threading two dozen positional parameters around.
type options struct {
	addr    string
	dtdPath string
	xmlPath string
	gen     int
	genXL   int
	genXR   int
	seed    int64

	snapshot        string
	walDir          string
	fsync           string
	fsyncInterval   time.Duration
	checkpointEvery int

	backend   string
	sqlDriver string
	sqlDSN    string

	nodeIDBase int

	strategy      string
	cacheSize     int
	maxConcurrent int
	queueDepth    int
	reqTimeout    time.Duration
	watchMaxSubs  int
	watchBuffer   int
	maxLFPIters   int
	maxTuples     int
	drainTimeout  time.Duration
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "listen address (host:port; port 0 picks one)")
	flag.StringVar(&o.dtdPath, "dtd", "", "path to the DTD file (required)")
	flag.StringVar(&o.xmlPath, "xml", "", "path to the XML document to serve")
	flag.IntVar(&o.gen, "gen", 0, "generate a synthetic document of ~n elements instead of -xml")
	flag.IntVar(&o.genXL, "gen-xl", 12, "generator tree-depth bound (with -gen)")
	flag.IntVar(&o.genXR, "gen-xr", 4, "generator fanout bound (with -gen)")
	flag.Int64Var(&o.seed, "seed", 42, "generator seed (with -gen)")
	flag.StringVar(&o.snapshot, "snapshot", "", "boot from this snapshot file instead of parsing/shredding")
	flag.StringVar(&o.walDir, "wal-dir", "", "durability directory for WAL segments and snapshots (empty = ephemeral)")
	flag.StringVar(&o.fsync, "fsync", "interval", "WAL sync policy: always, interval or never")
	flag.DurationVar(&o.fsyncInterval, "fsync-interval", 50*time.Millisecond, "period for -fsync interval")
	flag.IntVar(&o.checkpointEvery, "checkpoint-every", 1000, "auto-checkpoint after this many updates (0 disables)")
	flag.StringVar(&o.backend, "backend", "rdb", "execution backend: rdb (in-process live store) or sql (read-only database/sql executor)")
	flag.StringVar(&o.sqlDriver, "sql-driver", fakedb.DriverName, "database/sql driver name for -backend sql (in-repo fake driver by default)")
	flag.StringVar(&o.sqlDSN, "sql-dsn", "memory://xpathd", "database/sql DSN for -backend sql")
	flag.IntVar(&o.nodeIDBase, "node-id-base", 0, "offset this shard's node IDs by the base (xpathrouter fleets: give each shard a disjoint, generously spaced base, e.g. k<<24)")
	flag.StringVar(&o.strategy, "strategy", "X", "translation strategy: X, E or R")
	flag.IntVar(&o.cacheSize, "cache-size", xpath2sql.DefaultCacheSize, "prepared-plan cache capacity (<=0 disables caching)")
	flag.IntVar(&o.maxConcurrent, "max-concurrent", runtime.GOMAXPROCS(0), "admission: concurrently executing requests")
	flag.IntVar(&o.queueDepth, "queue-depth", 0, "admission: waiting requests before 429 (default 4x max-concurrent)")
	flag.DurationVar(&o.reqTimeout, "request-timeout", 30*time.Second, "per-request execution budget")
	flag.IntVar(&o.watchMaxSubs, "watch-max-subs", 0, "concurrent /v1/watch subscriptions before 429 (0 = default cap, negative = unlimited)")
	flag.IntVar(&o.watchBuffer, "watch-buffer", 0, "per-subscription pending-event buffer before snapshot resync (0 = default)")
	flag.IntVar(&o.maxLFPIters, "max-lfp-iters", 0, "cap iterations per fixpoint operator (0 = unlimited)")
	flag.IntVar(&o.maxTuples, "max-tuples", 0, "cap tuples produced per execution (0 = unlimited)")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", 10*time.Second, "graceful-shutdown budget for in-flight requests")
	flag.Parse()

	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("xpathd: ")
	if err := run(o); err != nil {
		log.Fatal(err)
	}
}

// loadSeed builds the database a fresh boot serves, rebased to
// -node-id-base. -xml is shredded in one streaming pass over the file, so
// neither the document text nor an element tree is held; -gen generates in
// memory.
func loadSeed(o options, d *xpath2sql.DTD) (*xpath2sql.DB, error) {
	var db *xpath2sql.DB
	if o.xmlPath != "" {
		f, err := os.Open(o.xmlPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if db, err = xpath2sql.StreamShred(f, d, xpath2sql.ShredStreamOptions{}); err != nil {
			return nil, fmt.Errorf("%s: %w", o.xmlPath, err)
		}
	} else {
		doc, err := generate(o, d)
		if err != nil {
			return nil, err
		}
		if db, err = xpath2sql.Shred(doc, d); err != nil {
			return nil, err
		}
	}
	return cluster.Rebase(d, db, o.nodeIDBase)
}

// generate builds the synthetic -gen document.
func generate(o options, d *xpath2sql.DTD) (*xpath2sql.Document, error) {
	if o.gen <= 0 {
		flag.Usage()
		return nil, errors.New("one of -xml or -gen is required")
	}
	// Random generation is a branching process that can go extinct
	// early; retry seeds until the document reaches a healthy fraction
	// of the requested size.
	var doc *xpath2sql.Document
	for attempt := int64(0); attempt < 32; attempt++ {
		cand, err := xpath2sql.Generate(d, xpath2sql.GenOptions{
			XL: o.genXL, XR: o.genXR, Seed: o.seed + attempt*7919, MaxNodes: o.gen,
		})
		if err != nil {
			return nil, err
		}
		if doc == nil || cand.Size() > doc.Size() {
			doc = cand
		}
		if doc.Size() >= o.gen/2 {
			break
		}
	}
	log.Printf("generated synthetic document: %d elements (xl=%d xr=%d seed=%d)",
		doc.Size(), o.genXL, o.genXR, o.seed)
	return doc, nil
}

// boot decides between the two start paths — recover persisted state, or
// build a fresh database from a document — and opens the store. It logs which
// path was taken and how long it took.
func boot(o options, d *xpath2sql.DTD) (*store.Store, error) {
	policy, err := store.ParseFsyncPolicy(o.fsync)
	if err != nil {
		return nil, err
	}
	start := time.Now()

	// Persisted state wins: an explicit -snapshot, or a snapshot already in
	// -wal-dir from a previous run. Either way parsing/shredding is skipped
	// (the WAL tail in -wal-dir is still replayed on top).
	fromDisk := o.snapshot != ""
	if !fromDisk {
		if fromDisk, err = store.HasState(o.walDir); err != nil {
			return nil, err
		}
	}

	var seed *xpath2sql.DB
	if fromDisk {
		if o.xmlPath != "" || o.gen > 0 {
			log.Printf("persisted state found; ignoring -xml/-gen")
		}
	} else {
		if o.xmlPath == "" && o.gen <= 0 {
			flag.Usage()
			return nil, errors.New("one of -xml, -gen or -snapshot is required (or a -wal-dir with prior state)")
		}
		if seed, err = loadSeed(o, d); err != nil {
			return nil, err
		}
	}

	st, err := store.Open(store.Config{
		DTD:             d,
		Seed:            seed,
		Dir:             o.walDir,
		SnapshotPath:    o.snapshot,
		Fsync:           policy,
		FsyncInterval:   o.fsyncInterval,
		CheckpointEvery: o.checkpointEvery,
		MinNextID:       o.nodeIDBase,
	})
	if err != nil {
		return nil, err
	}
	ep := st.View()
	if fromDisk {
		src := o.snapshot
		if src == "" {
			src = o.walDir
		}
		log.Printf("booted from snapshot %s + WAL replay: %d nodes, epoch %d, lsn %d (%v)",
			src, ep.DB.NumNodes(), ep.Seq, ep.LSN, time.Since(start).Round(time.Millisecond))
	} else {
		log.Printf("booted from document: %d nodes (%v)",
			ep.DB.NumNodes(), time.Since(start).Round(time.Millisecond))
	}
	return st, nil
}

func run(o options) error {
	if o.dtdPath == "" {
		flag.Usage()
		return errors.New("-dtd is required")
	}
	dsrc, err := os.ReadFile(o.dtdPath)
	if err != nil {
		return err
	}
	d, err := xpath2sql.ParseDTD(string(dsrc))
	if err != nil {
		return err
	}

	var strat xpath2sql.Strategy
	switch strings.ToUpper(o.strategy) {
	case "X":
		strat = xpath2sql.StrategyCycleEX
	case "E":
		strat = xpath2sql.StrategyCycleE
	case "R":
		strat = xpath2sql.StrategySQLGenR
	default:
		return fmt.Errorf("unknown strategy %q", o.strategy)
	}
	eng := xpath2sql.New(d,
		xpath2sql.WithStrategy(strat),
		xpath2sql.WithCacheSize(o.cacheSize),
		xpath2sql.WithLimits(xpath2sql.Limits{MaxLFPIters: o.maxLFPIters, MaxTuples: o.maxTuples}),
	)

	cfg := server.Config{
		Engine:         eng,
		MaxConcurrent:  o.maxConcurrent,
		QueueDepth:     o.queueDepth,
		RequestTimeout: o.reqTimeout,

		WatchMaxSubscriptions: o.watchMaxSubs,
		WatchBuffer:           o.watchBuffer,
	}
	var nodes int
	var mode string
	switch o.backend {
	case "rdb":
		st, err := boot(o, d)
		if err != nil {
			return err
		}
		defer st.Close()
		cfg.Source = server.FromStore(st)
		nodes = st.View().DB.NumNodes()
		mode = "ephemeral"
		if st.Durable() {
			mode = fmt.Sprintf("durable (wal-dir=%s fsync=%s)", o.walDir, o.fsync)
		}
	case "sql":
		// The SQL backend serves a frozen image of the document: queries
		// run the generated WITH RECURSIVE text on a database/sql driver,
		// and the live-store machinery (updates, WAL, snapshots) is off.
		if o.walDir != "" || o.snapshot != "" {
			return errors.New("-backend sql is read-only: -wal-dir and -snapshot are not supported")
		}
		db, err := loadSeed(o, d)
		if err != nil {
			return err
		}
		be, err := xpath2sql.OpenSQLBackend(context.Background(), o.sqlDriver, o.sqlDSN)
		if err != nil {
			return err
		}
		defer be.Close()
		t0 := time.Now()
		if err := be.Load(context.Background(), db); err != nil {
			return err
		}
		cfg.Source = server.FromBackend(be)
		nodes = db.NumNodes()
		mode = fmt.Sprintf("sql backend (driver=%s, read-only, loaded in %v)",
			o.sqlDriver, time.Since(t0).Round(time.Millisecond))
	default:
		return fmt.Errorf("unknown -backend %q (rdb or sql)", o.backend)
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}

	l, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	log.Printf("serving %d nodes on http://%s (strategy=%s max-concurrent=%d queue-depth=%d, %s)",
		nodes, l.Addr(), strat, o.maxConcurrent, o.queueDepth, mode)

	return srv.Run(l, o.drainTimeout)
}
