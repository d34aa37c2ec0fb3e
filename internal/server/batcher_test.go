package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xpath2sql"
)

// TestBatcherCoalesces fires many concurrent single queries at a server with
// micro-batching enabled and verifies (a) every answer matches the engine's
// direct answer, and (b) at least one multi-query batch run actually
// happened — the whole point of the window.
func TestBatcherCoalesces(t *testing.T) {
	s := newDeptServer(t, func(c *Config) {
		c.BatchWindow = 20 * time.Millisecond
		c.MaxBatch = 8
		c.MaxConcurrent = 16
		c.QueueDepth = 64
	})
	// Barrier: hold every request after admission until all 16 are in, so
	// the solo-bypass (a request executing alone skips the batcher) sees
	// real concurrency and every request takes the batching path.
	var (
		barrierMu sync.Mutex
		admitted  int
		barrier   = sync.NewCond(&barrierMu)
	)
	s.hookAfterAdmit = func() {
		barrierMu.Lock()
		admitted++
		if admitted >= 16 {
			barrier.Broadcast()
		} else {
			for admitted < 16 {
				barrier.Wait()
			}
		}
		barrierMu.Unlock()
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	want := map[string]int{
		"dept//project": 1,
		"dept//course":  2,
		"dept//cno":     2,
		"dept//student": 0,
	}
	queries := []string{"dept//project", "dept//course", "dept//cno", "dept//student"}

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q := queries[g%len(queries)]
			resp, err := http.Post(ts.URL+"/v1/query", "application/json",
				strings.NewReader(`{"query": "`+q+`"}`))
			if err != nil {
				errs <- err.Error()
				return
			}
			defer resp.Body.Close()
			var qr queryResponse
			if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
				errs <- err.Error()
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- resp.Status
				return
			}
			if qr.Count != want[q] {
				errs <- q + ": wrong count"
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	if s.m.batchRuns.Load() == 0 {
		t.Fatal("no multi-query batch run happened despite 16 concurrent queries in a 20ms window")
	}
	if s.m.batchedQueries.Load() < 2 {
		t.Fatalf("batchedQueries = %d, want >= 2", s.m.batchedQueries.Load())
	}
}

// TestBatcherFallback lands a malformed query in the same window as good
// ones: the batch run aborts and every entry is answered individually — the
// good queries still succeed, the bad one gets its own 400.
func TestBatcherFallback(t *testing.T) {
	s := newDeptServer(t, func(c *Config) {
		c.BatchWindow = 30 * time.Millisecond
		c.MaxBatch = 8
		c.MaxConcurrent = 8
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	type outcome struct {
		query string
		code  int
		count int
	}
	results := make(chan outcome, 4)
	var wg sync.WaitGroup
	for _, q := range []string{"dept//project", "dept///", "dept//course", "dept//cno"} {
		wg.Add(1)
		go func(q string) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/query", "application/json",
				strings.NewReader(`{"query": "`+q+`"}`))
			if err != nil {
				results <- outcome{q, -1, 0}
				return
			}
			defer resp.Body.Close()
			var qr queryResponse
			json.NewDecoder(resp.Body).Decode(&qr)
			results <- outcome{q, resp.StatusCode, qr.Count}
		}(q)
	}
	wg.Wait()
	close(results)

	for r := range results {
		if r.query == "dept///" {
			if r.code != http.StatusBadRequest {
				t.Errorf("bad query answered %d, want 400", r.code)
			}
			continue
		}
		if r.code != http.StatusOK {
			t.Errorf("%s answered %d, want 200", r.query, r.code)
		}
	}
}

// TestBatcherSoloBypass: a request executing alone skips the batcher
// entirely — no collection-window latency, response not marked batched, no
// batch run counted.
func TestBatcherSoloBypass(t *testing.T) {
	s := newDeptServer(t, func(c *Config) {
		c.BatchWindow = time.Millisecond
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	resp, body := postJSON(t, ts.URL+"/v1/query", queryRequest{Query: "dept//project"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Count != 1 || qr.Batched {
		t.Fatalf("response %+v, want count 1 and not batched (solo bypass)", qr)
	}
	if s.m.batchRuns.Load() != 0 {
		t.Fatalf("batchRuns = %d for a lone query", s.m.batchRuns.Load())
	}
}

// TestBatcherSingleEntryPath: when the window collects exactly one entry the
// batcher uses the plan-cached single-query path — no batch run is counted
// and the answer matches the direct path.
func TestBatcherSingleEntryPath(t *testing.T) {
	d, err := xpath2sql.ParseDTD(deptDTD)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xpath2sql.ParseXML(deptXML)
	if err != nil {
		t.Fatal(err)
	}
	db, err := xpath2sql.Shred(doc, d)
	if err != nil {
		t.Fatal(err)
	}
	m := newMetrics(nil)
	b := newBatcher(xpath2sql.New(d), func() (*xpath2sql.DB, uint64) { return db, 0 }, time.Millisecond, 4, time.Second, m)
	defer b.close()
	r := b.submit(context.Background(), "dept//project")
	if r.err != nil {
		t.Fatal(r.err)
	}
	if len(r.ids) != 1 || r.stats.StmtsRun == 0 {
		t.Fatalf("ids %v stats %+v", r.ids, r.stats)
	}
	if m.batchRuns.Load() != 0 {
		t.Fatalf("batchRuns = %d for a single-entry window", m.batchRuns.Load())
	}
}

// TestBatcherAnswerCache: a repeated batch of the same query set against the
// same DB version is served from the materialized answers (no new batch run,
// zero stats), and swapping the DB pointer — what a live store's epoch
// publish does — invalidates the cache so the next batch re-executes against
// the new data.
func TestBatcherAnswerCache(t *testing.T) {
	d, err := xpath2sql.ParseDTD(deptDTD)
	if err != nil {
		t.Fatal(err)
	}
	shred := func(xml string) *xpath2sql.DB {
		doc, err := xpath2sql.ParseXML(xml)
		if err != nil {
			t.Fatal(err)
		}
		db, err := xpath2sql.Shred(doc, d)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db1 := shred(deptXML)
	// Same document plus one more project: the answer to dept//project
	// changes between versions.
	db2 := shred(strings.Replace(deptXML,
		"<project><pno>p1</pno><ptitle>x</ptitle><required/></project>",
		"<project><pno>p1</pno><ptitle>x</ptitle><required/></project><project><pno>p2</pno><ptitle>y</ptitle><required/></project>", 1))

	var cur atomic.Pointer[xpath2sql.DB]
	cur.Store(db1)
	m := newMetrics(nil)
	b := newBatcher(xpath2sql.New(d), func() (*xpath2sql.DB, uint64) { return cur.Load(), 0 }, 50*time.Millisecond, 2, time.Second, m)
	defer b.close()

	// submitPair coalesces two concurrent queries into one batch (maxBatch 2,
	// so the window closes as soon as both arrive) and returns the count and
	// stats of the dept//project entry.
	submitPair := func() (int, xpath2sql.ExecStats) {
		ch := make(chan batchReply, 1)
		go func() { ch <- b.submit(context.Background(), "dept//project") }()
		if err := b.submit(context.Background(), "dept//cno").err; err != nil {
			t.Fatal(err)
		}
		r := <-ch
		if r.err != nil {
			t.Fatal(r.err)
		}
		return len(r.ids), r.stats
	}

	if n, _ := submitPair(); n != 1 {
		t.Fatalf("first batch: %d projects, want 1", n)
	}
	runs := m.batchRuns.Load()
	if runs == 0 {
		t.Fatal("first pair did not run as a batch")
	}

	// Same query set, same DB pointer: served from the materialized answers —
	// no new execution, zero stats on the reply.
	n, stats := submitPair()
	if n != 1 {
		t.Fatalf("cached batch: %d projects, want 1", n)
	}
	if got := m.batchRuns.Load(); got != runs {
		t.Fatalf("batchRuns grew %d -> %d on a cache-served batch", runs, got)
	}
	if m.batchAnswerHits.Load() < 2 {
		t.Fatalf("batchAnswerHits = %d, want >= 2", m.batchAnswerHits.Load())
	}
	if stats != (xpath2sql.ExecStats{}) {
		t.Fatalf("cache-served reply carries stats %+v, want zero", stats)
	}

	// New DB version: pointer identity fails, the batch re-executes and sees
	// the second project.
	cur.Store(db2)
	n, stats = submitPair()
	if n != 2 {
		t.Fatalf("after DB swap: %d projects, want 2", n)
	}
	if stats.StmtsRun == 0 {
		t.Fatal("post-swap batch served stale materialized answers (zero stats)")
	}
	if got := m.batchRuns.Load(); got != runs+1 {
		t.Fatalf("batchRuns = %d after swap, want %d", got, runs+1)
	}
}

// TestBatcherClosedRejects: submissions after Shutdown get the draining
// error, not a hang.
func TestBatcherClosedRejects(t *testing.T) {
	d, err := xpath2sql.ParseDTD(deptDTD)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xpath2sql.ParseXML(deptXML)
	if err != nil {
		t.Fatal(err)
	}
	db, err := xpath2sql.Shred(doc, d)
	if err != nil {
		t.Fatal(err)
	}
	b := newBatcher(xpath2sql.New(d), func() (*xpath2sql.DB, uint64) { return db, 0 }, 10*time.Millisecond, 4, time.Second, newMetrics(nil))
	b.close()
	done := make(chan error, 1)
	go func() {
		done <- b.submit(context.Background(), "dept//project").err
	}()
	select {
	case err := <-done:
		if err != errBatcherClosed {
			t.Fatalf("submit after close = %v, want errBatcherClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("submit hung after close")
	}
}
