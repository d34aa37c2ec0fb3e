// Command benchexp regenerates the paper's experimental tables and figures
// (§6): Exp-1 (Fig 12), Exp-2 (Fig 13), Exp-3 (Fig 14), Exp-4 (Fig 16 /
// Table 4 and Fig 17) and Exp-5 (Table 5) — plus the repo's plan-cache
// experiment (-exp cache), which reports per-request translation latency
// uncached vs warm and the cache counters, the data-plane
// micro-benchmarks (-exp rdb), which measure the compact join/fixpoint
// kernels against the retained seed-faithful naive evaluator at 1/2/4
// workers and can serialize the results (-json, the committed
// BENCH_rdb.json), the serving load generator (-exp serve), which
// drives the in-process query service with closed-loop clients at 1/4/8
// concurrency and reports QPS and p50/p95/p99 latency (-json, the committed
// BENCH_serve.json), and the live-store load generator (-exp store), which
// mixes queries with WAL-logged updates at a configurable write fraction
// (-write-frac) and reports read and write QPS/latency separately (-json,
// the committed BENCH_store.json), and the SQL-backend experiment
// (-exp sqlbackend), which executes the same translated programs on the
// in-process rdb engine and as rendered WITH RECURSIVE text on the
// database/sql executor over the in-repo hermetic driver, cross-checking
// every answer (-json, the committed BENCH_sqlbackend.json), the bulk-ingest
// experiment (-exp ingest), which streams a generated document of a
// scale-dependent byte size through the parallel streaming shredder at 1/2/4
// loader workers and reports elements/sec, MB/sec and peak RSS against the
// parse-then-shred tree baseline (-json, the committed BENCH_ingest.json),
// and the interval experiment (-exp interval), which times descendant-heavy
// queries under the pure least-fixpoint plan vs the interval-containment
// kernel with a differential proof that both answer sets match the native
// XPath oracle (-json, the committed BENCH_interval.json), and the watch
// experiment (-exp watch), which registers the dept queries as standing
// materialized views over a live store, compares per-update incremental
// maintenance against full re-execution, and measures end-to-end SSE delta
// propagation latency through /v1/watch at 1/4/16 subscribers (-json, the
// committed BENCH_watch.json), and the cluster experiment (-exp cluster),
// which opens the same multi-document collection as a 1-, 2- and 4-shard
// cluster, checks that the documents' scoped answers add up to the scatter
// answer, and times closed-loop document-scoped queries per shard count — flat
// by design, a correctness smoke rather than a gate (-json, the committed
// BENCH_cluster.json).
//
// Usage:
//
//	benchexp [-exp all|1|2|3|4|5|cache|rdb|serve|store|watch|sqlbackend|ingest|interval|cluster]
//	         [-scale small|medium|paper]
//	         [-trace] [-timeout 0] [-cache-size n] [-json file]
//	         [-write-frac 0.2] [-cpuprofile file] [-memprofile file]
//
// Scale selects the dataset sizes: "paper" uses the publication's element
// counts (120,000 to 5 million; minutes to hours of runtime), the default
// "small" a ~30× reduction (seconds). -timeout bounds every measured
// execution (a tripped limit aborts the experiment with a limit error);
// -trace prints the most expensive statements under each table row.
// -cpuprofile and -memprofile write pprof profiles covering the whole run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"xpath2sql/internal/backend/fakedb"
	"xpath2sql/internal/backend/sqlbe"
	"xpath2sql/internal/bench"
	"xpath2sql/internal/obs"
	"xpath2sql/internal/serveload"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, 1, 2, 3, 4, 5, cache, rdb, serve, store, watch, sqlbackend, ingest, interval or cluster")
	scale := flag.String("scale", "small", "dataset scale: small, medium or paper")
	trace := flag.Bool("trace", false, "print a per-statement breakdown under each table row")
	timeout := flag.Duration("timeout", 0, "wall-clock budget per measured execution (0 = unlimited)")
	cacheSize := flag.Int("cache-size", 0, "plan-cache capacity for the cache experiment (0 = engine default)")
	jsonOut := flag.String("json", "", "write the rdb, serve or store report to this file (-exp rdb/serve/store)")
	writeFrac := flag.Float64("write-frac", 0.2, "fraction of requests that are updates (-exp store)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	cfg := bench.Config{
		Scale:     bench.Scale(*scale),
		Out:       os.Stdout,
		Trace:     *trace,
		Limits:    obs.Limits{Timeout: *timeout},
		CacheSize: *cacheSize,
	}
	switch bench.Scale(*scale) {
	case bench.ScaleSmall, bench.ScaleMedium, bench.ScalePaper:
	default:
		fatal(fmt.Errorf("unknown scale %q", *scale))
	}
	var err error
	switch *exp {
	case "all":
		err = bench.RunAll(cfg)
	case "1":
		_, err = bench.Exp1(cfg)
	case "2":
		_, err = bench.Exp2(cfg)
	case "3":
		_, err = bench.Exp3(cfg)
	case "4":
		if _, err = bench.Exp4BIOML(cfg); err == nil {
			_, err = bench.Exp4GedML(cfg)
		}
	case "5":
		_, err = bench.Exp5(cfg)
	case "cache":
		_, err = bench.ExpCache(cfg)
	case "rdb":
		var report *bench.MicroReport
		if report, err = bench.RunMicro(cfg); err == nil && *jsonOut != "" {
			var blob []byte
			if blob, err = report.JSON(); err == nil {
				err = os.WriteFile(*jsonOut, blob, 0o644)
			}
		}
	case "serve":
		var report *serveload.ServeReport
		if report, err = serveload.RunServe(cfg); err == nil && *jsonOut != "" {
			var blob []byte
			if blob, err = report.JSON(); err == nil {
				err = os.WriteFile(*jsonOut, blob, 0o644)
			}
		}
	case "store":
		var report *serveload.StoreReport
		if report, err = serveload.RunStore(cfg, *writeFrac); err == nil && *jsonOut != "" {
			var blob []byte
			if blob, err = report.JSON(); err == nil {
				err = os.WriteFile(*jsonOut, blob, 0o644)
			}
		}
	case "ingest":
		var report *bench.IngestReport
		if report, err = bench.RunIngest(cfg); err == nil && *jsonOut != "" {
			var blob []byte
			if blob, err = report.JSON(); err == nil {
				err = os.WriteFile(*jsonOut, blob, 0o644)
			}
		}
	case "interval":
		var report *bench.IntervalReport
		if report, err = bench.RunInterval(cfg); err == nil && *jsonOut != "" {
			var blob []byte
			if blob, err = report.JSON(); err == nil {
				err = os.WriteFile(*jsonOut, blob, 0o644)
			}
		}
	case "cluster":
		var report *serveload.ClusterReport
		if report, err = serveload.RunCluster(cfg); err == nil && *jsonOut != "" {
			var blob []byte
			if blob, err = report.JSON(); err == nil {
				err = os.WriteFile(*jsonOut, blob, 0o644)
			}
		}
	case "watch":
		var report *serveload.WatchReport
		if report, err = serveload.RunWatch(cfg); err == nil && *jsonOut != "" {
			var blob []byte
			if blob, err = report.JSON(); err == nil {
				err = os.WriteFile(*jsonOut, blob, 0o644)
			}
		}
	case "sqlbackend":
		// The driver is linked here, in the main package, per the layering
		// rule; internal/bench only sees the opened backend.
		ctx := context.Background()
		dsn := "memory://benchexp"
		fakedb.Reset(dsn)
		var be *sqlbe.Backend
		if be, err = sqlbe.Open(ctx, fakedb.DriverName, dsn, sqlbe.Options{}); err != nil {
			fatal(err)
		}
		defer be.Close()
		var report *bench.SQLBackendReport
		if report, err = bench.RunSQLBackend(cfg, be, fakedb.DriverName); err == nil && *jsonOut != "" {
			var blob []byte
			if blob, err = report.JSON(); err == nil {
				err = os.WriteFile(*jsonOut, blob, 0o644)
			}
		}
	default:
		fatal(fmt.Errorf("unknown experiment %q", *exp))
	}
	if err != nil {
		fatal(err)
	}

	if *memProfile != "" {
		f, ferr := os.Create(*memProfile)
		if ferr != nil {
			fatal(ferr)
		}
		defer f.Close()
		runtime.GC()
		if ferr := pprof.WriteHeapProfile(f); ferr != nil {
			fatal(ferr)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchexp:", err)
	os.Exit(1)
}
