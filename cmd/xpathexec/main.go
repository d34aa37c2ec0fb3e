// Command xpathexec answers an XPath query end to end: it shreds an XML
// document into per-type edge relations, translates the query to relational
// queries with the selected strategy, executes them on the built-in engine,
// and prints the answer node IDs. With -verify it cross-checks the result
// against the native tree evaluator.
//
// Execution is cancellable and bounded: -timeout budgets the wall clock,
// -max-lfp-iters and -max-tuples cap fixpoint iterations and produced
// tuples (exceeding a bound exits with a typed limit error), and -trace
// prints the executed plan EXPLAIN ANALYZE style — one line per relational
// statement with observed cardinalities, fixpoint iteration counts and wall
// time. The query is prepared through the engine's plan cache (-cache-size
// bounds it; -stats reports the cache counters).
//
// Usage:
//
//	xpathexec -dtd dept.dtd -xml doc.xml -query 'dept//project' [-strategy X]
//	          [-backend rdb|sql] [-sql-driver fakesql] [-sql-dsn memory://x]
//	          [-verify] [-stats] [-paths] [-trace] [-timeout 5s]
//	          [-max-lfp-iters n] [-max-tuples n] [-cache-size n]
//
// With -backend sql the shredded relations are loaded into a database/sql
// database and the generated WITH RECURSIVE text is executed there; the
// default driver is the in-repo hermetic fake (register a real driver in a
// wrapper main to target an actual RDBMS).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"xpath2sql"
	"xpath2sql/internal/backend/fakedb" // registers the hermetic "fakesql" driver
)

func main() {
	dtdPath := flag.String("dtd", "", "path to the DTD file (required)")
	xmlPath := flag.String("xml", "", "path to the XML document (required)")
	query := flag.String("query", "", "XPath query (required)")
	strategy := flag.String("strategy", "X", "translation strategy: X, E or R")
	backendName := flag.String("backend", "rdb", "execution backend: rdb (in-process engine) or sql (database/sql executor)")
	sqlDriver := flag.String("sql-driver", fakedb.DriverName, "database/sql driver name for -backend sql (in-repo fake driver by default)")
	sqlDSN := flag.String("sql-dsn", "memory://xpathexec", "database/sql DSN for -backend sql")
	verify := flag.Bool("verify", false, "cross-check against the native evaluator")
	stats := flag.Bool("stats", false, "print execution statistics")
	paths := flag.Bool("paths", false, "print each answer's label path")
	reconstruct := flag.Bool("reconstruct", false, "print the answers' reconstructed XML subtrees")
	trace := flag.Bool("trace", false, "print the executed plan with observed cardinalities and timings")
	timeout := flag.Duration("timeout", 0, "wall-clock execution budget, e.g. 500ms (0 = unlimited)")
	maxLFPIters := flag.Int("max-lfp-iters", 0, "cap iterations per fixpoint operator (0 = unlimited)")
	maxTuples := flag.Int("max-tuples", 0, "cap total tuples produced (0 = unlimited)")
	cacheSize := flag.Int("cache-size", xpath2sql.DefaultCacheSize, "prepared-plan cache capacity (<=0 disables caching)")
	flag.Parse()

	if *dtdPath == "" || *xmlPath == "" || *query == "" {
		flag.Usage()
		os.Exit(2)
	}
	dsrc, err := os.ReadFile(*dtdPath)
	if err != nil {
		fatal(err)
	}
	d, err := xpath2sql.ParseDTD(string(dsrc))
	if err != nil {
		fatal(err)
	}
	xsrc, err := os.ReadFile(*xmlPath)
	if err != nil {
		fatal(err)
	}
	doc, err := xpath2sql.ParseXML(string(xsrc))
	if err != nil {
		fatal(err)
	}
	db, err := xpath2sql.Shred(doc, d)
	if err != nil {
		fatal(err)
	}
	var strat xpath2sql.Strategy
	switch strings.ToUpper(*strategy) {
	case "X":
		strat = xpath2sql.StrategyCycleEX
	case "E":
		strat = xpath2sql.StrategyCycleE
	case "R":
		strat = xpath2sql.StrategySQLGenR
	default:
		fatal(fmt.Errorf("unknown strategy %q", *strategy))
	}
	ctx := context.Background()
	var be xpath2sql.Backend
	switch *backendName {
	case "rdb":
		be = xpath2sql.NewLocalBackend(db)
	case "sql":
		sb, err := xpath2sql.OpenSQLBackend(ctx, *sqlDriver, *sqlDSN)
		if err != nil {
			fatal(err)
		}
		defer sb.Close()
		if err := sb.Load(ctx, db); err != nil {
			fatal(err)
		}
		be = sb
	default:
		fatal(fmt.Errorf("unknown backend %q (rdb or sql)", *backendName))
	}
	eng := xpath2sql.New(d,
		xpath2sql.WithStrategy(strat),
		xpath2sql.WithCacheSize(*cacheSize),
		xpath2sql.WithBackend(be),
		xpath2sql.WithLimits(xpath2sql.Limits{
			Timeout:     *timeout,
			MaxLFPIters: *maxLFPIters,
			MaxTuples:   *maxTuples,
		}),
	)
	prep, err := eng.PrepareString(ctx, *query)
	if err != nil {
		fatal(err)
	}
	t0 := time.Now()
	ans, err := prep.Execute(ctx)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(t0)
	ids := ans.IDs
	fmt.Printf("%d answers\n", len(ids))
	for _, id := range ids {
		if *paths {
			fmt.Printf("#%d  %s\n", id, doc.Node(xpath2sql.NodeID(id)).Path())
		} else {
			fmt.Printf("#%d\n", id)
		}
	}
	if *stats {
		fmt.Printf("stats: %+v (%v)\n", ans.Stats, elapsed.Round(time.Microsecond))
		fmt.Println(eng.CacheStats())
	}
	if *trace {
		fmt.Print(ans.Explain())
	}
	if *reconstruct {
		res, err := xpath2sql.Reconstruct(db, ids)
		if err != nil {
			fatal(err)
		}
		fmt.Print(res.Serialize())
	}
	if *verify {
		q, err := xpath2sql.ParseQuery(*query)
		if err != nil {
			fatal(err)
		}
		want := xpath2sql.EvalXPath(q, doc)
		ok := len(want) == len(ids)
		if ok {
			for i := range want {
				if int(want[i]) != ids[i] {
					ok = false
					break
				}
			}
		}
		if !ok {
			fatal(fmt.Errorf("VERIFY FAILED: engine %v vs oracle %v", ids, want))
		}
		fmt.Println("verified against the native evaluator")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xpathexec:", err)
	os.Exit(1)
}
