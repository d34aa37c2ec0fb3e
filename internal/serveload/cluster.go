package serveload

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"xpath2sql"
	"xpath2sql/internal/bench"
	"xpath2sql/internal/cluster"
	"xpath2sql/internal/ra"
	"xpath2sql/internal/workload"
)

// The cluster experiment opens the same multi-document collection as a 1-,
// 2- and 4-shard cluster and drives each with one closed-loop client issuing
// document-scoped queries. It is a correctness smoke with timings attached,
// not a scale-out measurement: a scoped query routes to the shard owning its
// document and executes over that document's rows alone, so it costs what the
// document costs at every shard count and the speedup column sits near 1.
// (Before scope moved into execution the column read 1.85×/4.3× — the cost of
// running the whole shard and filtering, shrinking with the shard.) Per
// level, the documents' scoped answers must add up to the scatter answer.

// clusterShardCounts are the cluster sizes measured; the first is the
// baseline every speedup is relative to.
var clusterShardCounts = []int{1, 2, 4}

// clusterQueries is the request mix, cycled per request: two recursive
// descendant queries and a leaf query over the dept schema.
var clusterQueries = []string{
	"dept//project",
	"dept//course",
	"dept//cno",
}

// clusterDocs is the number of documents in the collection. A multiple of
// every measured shard count, so round-robin placement balances exactly.
const clusterDocs = 8

// clusterClients is the closed-loop client count, fixed across levels so the
// only variable is the shard count.
const clusterClients = 1

// ClusterResult is one shard count's measurement.
type ClusterResult struct {
	Shards     int     `json:"shards"`
	Requests   int     `json:"requests"`
	Errors     int     `json:"errors"`
	DurationMS float64 `json:"duration_ms"`
	QPS        float64 `json:"qps"`
	MeanMS     float64 `json:"mean_ms"`
	P50MS      float64 `json:"p50_ms"`
	P95MS      float64 `json:"p95_ms"`
	P99MS      float64 `json:"p99_ms"`
	// Speedup is this level's QPS over the single-shard level's; about 1
	// by design (see the package comment) and gated by nothing.
	Speedup float64 `json:"speedup"`
}

// ClusterReport is the serialized form of BENCH_cluster.json.
type ClusterReport struct {
	GeneratedBy string          `json:"generated_by"`
	Note        string          `json:"note"`
	Scale       string          `json:"scale"`
	Documents   int             `json:"documents"`
	Elements    int             `json:"elements"`
	Clients     int             `json:"clients"`
	Queries     []string        `json:"queries"`
	Levels      []ClusterResult `json:"levels"`
}

// JSON renders the report for BENCH_cluster.json.
func (r *ClusterReport) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// RunCluster builds the multi-document dept collection and measures
// closed-loop document-scoped query throughput at each shard count.
func RunCluster(c bench.Config) (*ClusterReport, error) {
	d, err := xpath2sql.ParseDTD(workload.DeptText)
	if err != nil {
		return nil, err
	}
	// Every document is generated from the same seed, so all 8 are the same
	// size and any count-balanced placement is also data-balanced — random
	// per-document sizes would skew shard volumes and blur the measured
	// scaling. (BuildCollection rebases node IDs per document, so identical
	// content still yields disjoint ID ranges.)
	perDoc := scaled(c.Scale, 240000)
	doc, err := generateRetryFacade(d, 12, 4, 42, perDoc)
	if err != nil {
		return nil, err
	}
	db, err := xpath2sql.Shred(doc, d)
	if err != nil {
		return nil, err
	}
	docs := make([]*xpath2sql.DB, 0, clusterDocs)
	elements := 0
	for i := 0; i < clusterDocs; i++ {
		docs = append(docs, db)
		elements += doc.Size()
	}
	collection, err := cluster.BuildCollection(d, docs)
	if err != nil {
		return nil, err
	}
	// Ordinal placement balances the 8 documents exactly (4/4 and 2/2/2/2);
	// modulo on raw root IDs would skew the split and understate scaling.
	var roots []int
	collection.EachNode(func(id int) {
		if collection.Parent(id) == 0 {
			roots = append(roots, id)
		}
	})
	placement := cluster.NewOrdinalPlacement(roots)

	eng := xpath2sql.New(d)
	progs := make([]*ra.Program, 0, len(clusterQueries))
	for _, q := range clusterQueries {
		tr, err := eng.TranslateString(context.Background(), q)
		if err != nil {
			return nil, fmt.Errorf("translate %q: %w", q, err)
		}
		progs = append(progs, tr.Program())
	}

	measure := 3 * time.Second
	if c.Scale == bench.ScaleSmall || c.Scale == "" {
		measure = 2 * time.Second
	}

	report := &ClusterReport{
		GeneratedBy: "benchexp -exp cluster",
		Note: "one client, document-scoped queries: a scoped query executes over its document's rows alone, " +
			"so QPS is flat in the shard count (speedup ~1, ungated); each level checked that the documents' " +
			"scoped answers add up to the scatter answer",
		Scale:     string(c.Scale),
		Documents: clusterDocs,
		Elements:  elements,
		Clients:   clusterClients,
		Queries:   clusterQueries,
	}
	cprintf(c, "cluster — closed-loop document-scoped load, %d documents, %d elements, %d clients (measure %v per level)\n",
		clusterDocs, elements, clusterClients, measure)
	cprintf(c, "%-8s %10s %8s %10s %9s %9s %9s %9s %9s\n",
		"shards", "requests", "errors", "qps", "mean ms", "p50 ms", "p95 ms", "p99 ms", "speedup")

	var baseQPS float64
	for _, n := range clusterShardCounts {
		// Level the heap between levels: earlier levels' garbage would
		// otherwise tax later levels' GC and skew the speedup.
		runtime.GC()
		cl, err := cluster.Open(cluster.Config{
			DTD:       d,
			Shards:    n,
			Placement: placement,
		}, collection)
		if err != nil {
			return nil, err
		}
		res, err := clusterLevel(cl, progs, measure)
		cl.Close()
		if err != nil {
			return nil, err
		}
		if baseQPS == 0 {
			baseQPS = res.QPS
		}
		if baseQPS > 0 {
			res.Speedup = res.QPS / baseQPS
		}
		report.Levels = append(report.Levels, res)
		cprintf(c, "%-8d %10d %8d %10.0f %9.3f %9.3f %9.3f %9.3f %8.2fx\n",
			res.Shards, res.Requests, res.Errors, res.QPS,
			res.MeanMS, res.P50MS, res.P95MS, res.P99MS, res.Speedup)
	}
	return report, nil
}

// clusterLevel drives one cluster with closed-loop clients for roughly the
// measure duration: every request picks a document and a query by sequence
// number and executes document-scoped, so placement — not the load
// generator — decides which shard runs it.
func clusterLevel(cl *cluster.Cluster, progs []*ra.Program, measure time.Duration) (ClusterResult, error) {
	ctx := context.Background()
	roots := cl.DocRoots()
	sort.Ints(roots)
	if len(roots) == 0 {
		return ClusterResult{}, fmt.Errorf("cluster has no document roots")
	}

	// The correctness half: per program, the scoped answers of all documents,
	// in root order, are the scatter answer. It also warms every shard before
	// the timed loop.
	for i, p := range progs {
		whole, err := cl.Exec(ctx, p, cluster.ExecOptions{})
		if err != nil {
			return ClusterResult{}, fmt.Errorf("scatter: %w", err)
		}
		var union []int
		for _, root := range roots {
			ans, err := cl.Exec(ctx, p, cluster.ExecOptions{Doc: root, Workers: 1})
			if err != nil {
				return ClusterResult{}, fmt.Errorf("%s scoped to document %d: %w", clusterQueries[i], root, err)
			}
			union = append(union, ans.IDs...)
		}
		if !slices.Equal(union, whole.IDs) {
			return ClusterResult{}, fmt.Errorf("%s: the documents' scoped answers (%d ids) do not add up to the scatter answer (%d ids)",
				clusterQueries[i], len(union), len(whole.IDs))
		}
	}

	type clientResult struct {
		samples []float64 // milliseconds
		errors  int
	}
	stop := make(chan struct{})
	results := make([]clientResult, clusterClients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < clusterClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := &results[i]
			for seq := i; ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				root := roots[seq%len(roots)]
				prog := progs[seq%len(progs)]
				rt0 := time.Now()
				if _, err := cl.Exec(ctx, prog, cluster.ExecOptions{Doc: root, Workers: 1}); err != nil {
					r.errors++
					continue
				}
				r.samples = append(r.samples, time.Since(rt0).Seconds()*1000)
			}
		}(i)
	}
	time.Sleep(measure)
	close(stop)
	wg.Wait()
	elapsed := time.Since(t0)

	var samples []float64
	errors := 0
	for _, r := range results {
		samples = append(samples, r.samples...)
		errors += r.errors
	}
	sort.Float64s(samples)
	return ClusterResult{
		Shards:     cl.Stats().ShardCount,
		Requests:   len(samples),
		Errors:     errors,
		DurationMS: elapsed.Seconds() * 1000,
		QPS:        float64(len(samples)) / elapsed.Seconds(),
		MeanMS:     mean(samples),
		P50MS:      percentile(samples, 0.50),
		P95MS:      percentile(samples, 0.95),
		P99MS:      percentile(samples, 0.99),
	}, nil
}
