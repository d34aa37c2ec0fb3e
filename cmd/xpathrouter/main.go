// Command xpathrouter is the edge of an xpathd fleet — the middleware of the
// paper's Fig. 1 with the relations spread over N shards. It parses and
// translates every query here, against the DTD, and routes the result through
// the one router in internal/cluster (cluster.Connect): to the shard owning
// the document when the request names one, otherwise to every shard, merging
// the node-ID sets; an update goes to the shard owning the node. The HTTP API
// is internal/server's, so clients talk to N shards exactly as they would to
// one xpathd — admission control, deadlines, fault mapping and drain included.
//
//	POST /v1/query      scatter and merge; "doc" routes to the owner alone;
//	                    "explain" returns the plan and one gather line a shard
//	POST /v1/batch      the queries scatter concurrently, answers in order
//	POST /v1/translate  SQL only; no shard is asked
//	POST /v1/update     routed to the one shard owning the node
//	GET  /healthz       router liveness
//	GET  /readyz        fleet readiness under the read mode
//	GET  /metrics       router-side Prometheus counters, a row per shard
//
// Each shard serves a disjoint node-ID range: boot the xpathd processes with
// distinct, generously spaced -node-id-base values and name each shard to the
// router by that base. A shard owns every ID from its base up to the next.
//
// Usage:
//
//	xpathd -dtd dept.dtd -xml doc1.xml -addr :8081 -node-id-base 0 &
//	xpathd -dtd dept.dtd -xml doc2.xml -addr :8082 -node-id-base $((1<<24)) &
//	xpathrouter -dtd dept.dtd [-addr :8080]
//	            -shards 0=http://127.0.0.1:8081,16777216=http://127.0.0.1:8082
//	            [-mode strict|quorum|best-effort] [-shard-timeout 10s]
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"xpath2sql"
	"xpath2sql/internal/cluster"
	"xpath2sql/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address (host:port; port 0 picks one)")
		dtdPath      = flag.String("dtd", "", "path to the DTD the shards serve (required: queries are translated here)")
		shards       = flag.String("shards", "", "comma-separated base=URL, one per shard: the -node-id-base it was booted on and its base URL (required)")
		mode         = flag.String("mode", "strict", "partial-failure read mode: strict, quorum or best-effort")
		shardTimeout = flag.Duration("shard-timeout", 10*time.Second, "per-shard call budget")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown budget for in-flight requests")
	)
	flag.Parse()
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("xpathrouter: ")
	if err := run(*addr, *dtdPath, *shards, *mode, *shardTimeout, *drainTimeout); err != nil {
		log.Fatal(err)
	}
}

// parseShards reads the -shards value: base=URL, comma-separated.
func parseShards(spec string) ([]cluster.RemoteShard, error) {
	var out []cluster.RemoteShard
	for _, item := range strings.Split(spec, ",") {
		if item = strings.TrimSpace(item); item == "" {
			continue
		}
		base, url, ok := strings.Cut(item, "=")
		n, err := strconv.Atoi(base)
		if !ok || err != nil || n < 0 {
			return nil, fmt.Errorf("-shards: %q is not base=URL (the shard's -node-id-base, then its URL)", item)
		}
		out = append(out, cluster.RemoteShard{URL: url, Base: n})
	}
	return out, nil
}

func run(addr, dtdPath, shards, mode string, shardTimeout, drainTimeout time.Duration) error {
	if dtdPath == "" || shards == "" {
		flag.Usage()
		return errors.New("-dtd and -shards are required")
	}
	dsrc, err := os.ReadFile(dtdPath)
	if err != nil {
		return err
	}
	d, err := xpath2sql.ParseDTD(string(dsrc))
	if err != nil {
		return err
	}
	fleet, err := parseShards(shards)
	if err != nil {
		return err
	}
	rm, err := cluster.ParseReadMode(mode)
	if err != nil {
		return err
	}
	cl, err := cluster.Connect(cluster.Config{Mode: rm, ShardTimeout: shardTimeout}, fleet)
	if err != nil {
		return err
	}
	defer cl.Close()
	srv, err := server.New(server.Config{Engine: xpath2sql.New(d), Source: server.FromCluster(cl), Service: "xpathrouter"})
	if err != nil {
		return err
	}

	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	log.Printf("routing %d shards on http://%s (mode=%s shard-timeout=%v)", len(fleet), l.Addr(), rm, shardTimeout)
	for i, sh := range fleet {
		log.Printf("  shard%d -> %s (node IDs from %d)", i, sh.URL, sh.Base)
	}

	return srv.Run(l, drainTimeout)
}
