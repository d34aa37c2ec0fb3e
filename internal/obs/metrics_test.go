package obs

import (
	"bufio"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramObserveAndQuantile(t *testing.T) {
	h := NewHistogram(nil)
	// 100 observations spread 1..100 ms.
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	wantSum := 0.0
	for i := 1; i <= 100; i++ {
		wantSum += float64(i) / 1000
	}
	if s.Sum < wantSum-0.001 || s.Sum > wantSum+0.001 {
		t.Fatalf("sum = %v, want ~%v", s.Sum, wantSum)
	}
	p50 := s.Quantile(0.5)
	if p50 < 0.025 || p50 > 0.1 {
		t.Fatalf("p50 = %v, want within the bucket containing 50ms", p50)
	}
	p99 := s.Quantile(0.99)
	if p99 < p50 {
		t.Fatalf("p99 %v < p50 %v", p99, p50)
	}
	if got := s.Quantile(1); got < p99 {
		t.Fatalf("p100 %v < p99 %v", got, p99)
	}
}

func TestHistogramEmptyAndOverflow(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01})
	if got := h.Snapshot().Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
	h.Observe(5 * time.Second) // beyond the last bound: +Inf bucket
	s := h.Snapshot()
	if s.Buckets[len(s.Buckets)-1] != 1 {
		t.Fatalf("+Inf bucket = %v", s.Buckets)
	}
	if got := s.Quantile(0.5); got != 0.01 {
		t.Fatalf("overflow quantile = %v, want last finite bound 0.01", got)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != 8000 {
		t.Fatalf("count = %d, want 8000", got)
	}
}

// promLine matches one sample line of the text exposition format.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [-+0-9.eEInf]+$`)

func TestWritePrometheusFormat(t *testing.T) {
	h := NewHistogram(nil)
	h.Observe(2 * time.Millisecond)
	h.Observe(40 * time.Millisecond)
	m := &MetricsSnapshot{
		Service: "xpathd",
		Uptime:  3 * time.Second,
		Requests: []RequestCount{
			{Endpoint: "query", Code: 200, Count: 7},
			{Endpoint: "batch", Code: 429, Count: 2},
		},
		Latency:     []EndpointLatency{{Endpoint: "query", Hist: h.Snapshot()}},
		InFlight:    1,
		Rejections:  2,
		LimitErrors: 1,
		Engine:      EngineStats{Cache: CacheStats{Hits: 5, Misses: 2, Entries: 2}, Backend: "rdb"},
		Exec:        OpStats{Joins: 10, TuplesOut: 1000, LFPIters: 12},
		StmtsRun:    20,
		// Every optional section filled in: a metric family declared twice
		// makes a Prometheus parser reject the scrape.
		Store: &StoreStats{Epoch: 3, Nodes: 100, Inserts: 2, Apply: h.Snapshot()},
		Watch: &WatchStats{ActiveViews: 1, Reruns: 1, Propagation: h.Snapshot()},
		Cluster: &ClusterStats{ShardCount: 2, Mode: "quorum", Placement: "external", Scatters: 4, Degraded: 1, Failures: 1,
			Shards: []ClusterShardStats{{Name: "shard0", Queries: 4}, {Name: "shard1", Down: true, Queries: 4, Failures: 1}}},
	}
	var b strings.Builder
	m.WritePrometheus(&b)
	out := b.String()

	sc := bufio.NewScanner(strings.NewReader(out))
	samples := 0
	typed := map[string]bool{}
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, _ = strings.Cut(name, " ")
			if typed[name] {
				t.Fatalf("metric family %s is declared twice:\n%s", name, out)
			}
			typed[name] = true
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("malformed exposition line: %q", line)
		}
		samples++
	}
	if samples == 0 {
		t.Fatal("no sample lines emitted")
	}
	for _, want := range []string{
		`xpathd_requests_total{endpoint="batch",code="429"} 2`,
		`xpathd_requests_total{endpoint="query",code="200"} 7`,
		`xpathd_request_seconds_count{endpoint="query"} 2`,
		`xpathd_request_seconds_bucket{endpoint="query",le="+Inf"} 2`,
		"xpathd_plancache_hits_total 5",
		"xpathd_exec_tuples_total 1000",
		"xpathd_inflight_requests 1",
		"xpathd_uptime_seconds 3",
		`xpathd_cluster_shard_failures_total{shard="shard1"} 1`,
		`xpathd_cluster_shard_up{shard="shard1"} 0`,
		"xpathd_store_epoch 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Sorted label order: batch before query.
	if strings.Index(out, `endpoint="batch"`) > strings.Index(out, `endpoint="query"`) {
		t.Fatal("request series not sorted by endpoint")
	}
}
