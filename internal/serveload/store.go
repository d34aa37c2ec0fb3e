package serveload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"time"

	"xpath2sql"
	"xpath2sql/internal/bench"
	"xpath2sql/internal/server"
	"xpath2sql/internal/store"
	"xpath2sql/internal/workload"
)

// The store experiment (benchexp -exp store) measures the live document
// store through the full HTTP service under a mixed read/write workload:
// closed-loop clients issue queries and updates in a configurable ratio
// (-write-frac), updates flowing through the serialized writer + WAL while
// queries execute against pinned epoch snapshots. Reads and writes are
// reported separately — QPS and p50/p95/p99 — per concurrency level, so the
// cost of concurrent mutation on read latency (and vice versa) is visible.

// storeFragment is the subtree inserted by write operations: a minimal
// DTD-conforming course (5 nodes). Writers alternate inserts and deletes of
// their own subtrees so the database size stays bounded over the run.
const storeFragment = "<course><cno>bench</cno><title>t</title><prereq></prereq><takenBy></takenBy></course>"

// StoreMixResult is one concurrency level's measurement, reads and writes
// separated.
type StoreMixResult struct {
	Concurrency int     `json:"concurrency"`
	Reads       int     `json:"reads"`
	Writes      int     `json:"writes"`
	Errors      int     `json:"errors"`
	DurationMS  float64 `json:"duration_ms"`
	ReadQPS     float64 `json:"read_qps"`
	WriteQPS    float64 `json:"write_qps"`
	ReadMeanMS  float64 `json:"read_mean_ms"`
	ReadP50MS   float64 `json:"read_p50_ms"`
	ReadP95MS   float64 `json:"read_p95_ms"`
	ReadP99MS   float64 `json:"read_p99_ms"`
	WriteMeanMS float64 `json:"write_mean_ms"`
	WriteP50MS  float64 `json:"write_p50_ms"`
	WriteP95MS  float64 `json:"write_p95_ms"`
	WriteP99MS  float64 `json:"write_p99_ms"`
}

// StoreReport is the serialized form of BENCH_store.json.
type StoreReport struct {
	GeneratedBy string           `json:"generated_by"`
	Scale       string           `json:"scale"`
	Elements    int              `json:"elements"`
	WriteFrac   float64          `json:"write_frac"`
	Fsync       string           `json:"fsync"`
	Queries     []string         `json:"queries"`
	Levels      []StoreMixResult `json:"levels"`
}

// JSON renders the report for BENCH_store.json.
func (r *StoreReport) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// RunStore builds the dept dataset, wraps it in a durable store (WAL in a
// temporary directory, interval fsync — the production default), stands up
// the query service and drives it with closed-loop clients that mix reads
// and writes at the given fraction.
func RunStore(c bench.Config, writeFrac float64) (*StoreReport, error) {
	if writeFrac < 0 || writeFrac > 1 {
		return nil, fmt.Errorf("write fraction %v out of [0,1]", writeFrac)
	}
	d, err := xpath2sql.ParseDTD(workload.DeptText)
	if err != nil {
		return nil, err
	}
	target := scaled(c.Scale, 120000)
	doc, err := generateRetryFacade(d, 12, 4, 42, target)
	if err != nil {
		return nil, err
	}
	db, err := xpath2sql.Shred(doc, d)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "xpath2sql-storebench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(store.Config{DTD: d, Seed: db, Dir: dir, Fsync: store.FsyncInterval})
	if err != nil {
		return nil, err
	}
	defer st.Close()

	eng := xpath2sql.New(d, xpath2sql.WithLimits(xpath2sql.Limits{
		MaxTuples:   c.Limits.MaxTuples,
		MaxLFPIters: c.Limits.MaxLFPIters,
		Timeout:     c.Limits.Timeout,
	}))
	maxClients := serveLevels[len(serveLevels)-1]
	srv, err := server.New(server.Config{Engine: eng, Source: server.FromStore(st), QueueDepth: 2 * maxClients})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	measure := 3 * time.Second
	if c.Scale == bench.ScaleSmall || c.Scale == "" {
		measure = 500 * time.Millisecond
	}

	report := &StoreReport{
		GeneratedBy: "benchexp -exp store",
		Scale:       string(c.Scale),
		Elements:    doc.Size(),
		WriteFrac:   writeFrac,
		Fsync:       string(store.FsyncInterval),
		Queries:     serveQueries,
	}
	cprintf(c, "store — mixed read/write load over dept, %d elements, write-frac %.2f (measure %v per level)\n",
		doc.Size(), writeFrac, measure)
	cprintf(c, "%-8s %8s %8s %7s %9s %9s %9s %9s %9s %9s %9s %9s\n",
		"clients", "reads", "writes", "errors", "r qps", "w qps",
		"r p50", "r p95", "r p99", "w p50", "w p95", "w p99")

	// Warm the plan cache so every level measures steady-state serving.
	for _, q := range serveQueries {
		if err := serveOnce(ts.URL+"/v1/query", q); err != nil {
			return nil, fmt.Errorf("warmup %q: %w", q, err)
		}
	}

	for _, n := range serveLevels {
		res, err := storeLevel(ts.URL, n, writeFrac, measure)
		if err != nil {
			return nil, err
		}
		report.Levels = append(report.Levels, res)
		cprintf(c, "%-8d %8d %8d %7d %9.0f %9.0f %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f\n",
			res.Concurrency, res.Reads, res.Writes, res.Errors, res.ReadQPS, res.WriteQPS,
			res.ReadP50MS, res.ReadP95MS, res.ReadP99MS, res.WriteP50MS, res.WriteP95MS, res.WriteP99MS)
	}
	return report, nil
}

// storeLevel runs n closed-loop clients for roughly the measure duration.
// Each client rolls writeFrac per iteration: reads cycle the query mix,
// writes alternate inserting a course subtree and deleting one of the
// client's own earlier inserts (so growth stays bounded and deletes always
// target live nodes).
func storeLevel(base string, n int, writeFrac float64, measure time.Duration) (StoreMixResult, error) {
	type clientResult struct {
		reads, writes []float64 // milliseconds
		errors        int
	}
	stop := make(chan struct{})
	results := make([]clientResult, n)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := &results[i]
			rng := rand.New(rand.NewSource(int64(1000*n + i)))
			var owned []int // roots of subtrees this client inserted
			for seq := i; ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				rt0 := time.Now()
				if rng.Float64() < writeFrac {
					var err error
					if len(owned) > 0 && (len(owned) >= 8 || rng.Intn(2) == 0) {
						last := owned[len(owned)-1]
						owned = owned[:len(owned)-1]
						err = storeUpdate(base, map[string]any{"op": "delete_subtree", "node": last})
					} else {
						var id int
						id, err = storeInsert(base)
						if err == nil {
							owned = append(owned, id)
						}
					}
					if err != nil {
						r.errors++
						continue
					}
					r.writes = append(r.writes, time.Since(rt0).Seconds()*1000)
				} else {
					if err := serveOnce(base+"/v1/query", serveQueries[seq%len(serveQueries)]); err != nil {
						r.errors++
						continue
					}
					r.reads = append(r.reads, time.Since(rt0).Seconds()*1000)
				}
			}
		}(i)
	}
	time.Sleep(measure)
	close(stop)
	wg.Wait()
	elapsed := time.Since(t0)

	var reads, writes []float64
	errors := 0
	for _, r := range results {
		reads = append(reads, r.reads...)
		writes = append(writes, r.writes...)
		errors += r.errors
	}
	sort.Float64s(reads)
	sort.Float64s(writes)
	return StoreMixResult{
		Concurrency: n,
		Reads:       len(reads),
		Writes:      len(writes),
		Errors:      errors,
		DurationMS:  elapsed.Seconds() * 1000,
		ReadQPS:     float64(len(reads)) / elapsed.Seconds(),
		WriteQPS:    float64(len(writes)) / elapsed.Seconds(),
		ReadMeanMS:  mean(reads),
		ReadP50MS:   percentile(reads, 0.50),
		ReadP95MS:   percentile(reads, 0.95),
		ReadP99MS:   percentile(reads, 0.99),
		WriteMeanMS: mean(writes),
		WriteP50MS:  percentile(writes, 0.50),
		WriteP95MS:  percentile(writes, 0.95),
		WriteP99MS:  percentile(writes, 0.99),
	}, nil
}

// storeInsert posts an insert_subtree and returns the assigned root node ID.
func storeInsert(base string) (int, error) {
	blob, err := json.Marshal(map[string]any{
		"op": "insert_subtree", "parent": 1, "fragment": storeFragment,
	})
	if err != nil {
		return 0, err
	}
	resp, err := http.Post(base+"/v1/update", "application/json", bytes.NewReader(blob))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var body struct {
		NodeID int `json:"node_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("insert: status %d", resp.StatusCode)
	}
	return body.NodeID, nil
}

// storeUpdate posts an arbitrary update request and fails on non-200.
func storeUpdate(base string, req map[string]any) error {
	blob, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := http.Post(base+"/v1/update", "application/json", bytes.NewReader(blob))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var sink json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&sink); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("update: status %d: %s", resp.StatusCode, sink)
	}
	return nil
}
