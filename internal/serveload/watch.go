package serveload

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"xpath2sql"
	"xpath2sql/internal/bench"
	"xpath2sql/internal/ivm"
	"xpath2sql/internal/rdb"
	"xpath2sql/internal/server"
	"xpath2sql/internal/store"
	"xpath2sql/internal/workload"
)

// The watch experiment (benchexp -exp watch) measures continuous queries in
// two sections:
//
//  1. Maintenance vs full re-execution: for each standing query, every
//     single-subtree update is applied to a materialized rdb.ViewState
//     (delta-seeded semi-naive insert, delete-and-re-derive delete, or the
//     rebuild fallback — whatever the maintenance matrix selects) and, for
//     comparison, the answer is recomputed from scratch through the normal
//     serving path on the same epoch. The ratio is the payoff of standing
//     views over re-running the query per update.
//  2. End-to-end propagation: W SSE subscribers watch the dept queries over
//     HTTP while one writer applies single-subtree updates; each delivered
//     delta's latency is measured from just before the update request to
//     the moment the subscriber decodes the event for that epoch.

// watchSubLevels are the subscriber counts of the propagation section.
var watchSubLevels = []int{1, 4, 16}

// watchQueries is the serving mix plus one child-axis path: the descendant
// queries carry a pushed end constraint, which a delete maintains by dropping
// the pairs anchored at an end node that lost its last witness, while
// dept/course/prereq/course is a chain of joins whose candidates are probed
// for a surviving derivation.
var watchQueries = append(append([]string{}, serveQueries...), "dept/course/prereq/course")

// WatchMaintResult compares incremental maintenance against full
// re-execution for one standing query and one update kind.
type WatchMaintResult struct {
	Query   string `json:"query"`
	Op      string `json:"op"`
	Updates int    `json:"updates"`
	// Maintained counts updates the view absorbed incrementally; the rest
	// fell back to a full rebuild (still exact, just not incremental).
	Maintained    int     `json:"maintained"`
	IncrementalUS float64 `json:"incremental_us"` // mean per update
	FullUS        float64 `json:"full_us"`        // mean per update
	Speedup       float64 `json:"speedup"`        // FullUS / IncrementalUS
}

// WatchPropResult is one subscriber level of the propagation section.
type WatchPropResult struct {
	Subscribers int     `json:"subscribers"`
	Updates     int     `json:"updates"`
	Deliveries  int     `json:"deliveries"`
	Resyncs     int     `json:"resyncs"`
	Errors      int     `json:"errors"`
	MeanMS      float64 `json:"mean_ms"`
	P50MS       float64 `json:"p50_ms"`
	P95MS       float64 `json:"p95_ms"`
	P99MS       float64 `json:"p99_ms"`
}

// WatchReport is the serialized form of BENCH_watch.json.
type WatchReport struct {
	GeneratedBy string             `json:"generated_by"`
	Scale       string             `json:"scale"`
	Elements    int                `json:"elements"`
	Queries     []string           `json:"queries"`
	Maintenance []WatchMaintResult `json:"maintenance"`
	Propagation []WatchPropResult  `json:"propagation"`
}

// JSON renders the report for BENCH_watch.json.
func (r *WatchReport) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// RunWatch builds the paper-scale dept dataset in a live store and measures
// standing-view maintenance (vs full re-execution) and SSE delta
// propagation.
func RunWatch(c bench.Config) (*WatchReport, error) {
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
	st, err := store.Open(store.Config{DTD: d, Seed: db, Fsync: store.FsyncNever})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	eng := xpath2sql.New(d, xpath2sql.WithLimits(xpath2sql.Limits{
		MaxTuples:   c.Limits.MaxTuples,
		MaxLFPIters: c.Limits.MaxLFPIters,
		Timeout:     c.Limits.Timeout,
	}))

	updates := 8
	if c.Scale == bench.ScalePaper || c.Scale == bench.ScaleMedium {
		updates = 40
	}

	report := &WatchReport{
		GeneratedBy: "benchexp -exp watch",
		Scale:       string(c.Scale),
		Elements:    doc.Size(),
		Queries:     watchQueries,
	}
	cprintf(c, "watch — standing views over dept, %d elements (%d single-subtree updates per query/op)\n",
		doc.Size(), updates)
	cprintf(c, "%-16s %-8s %7s %10s %12s %10s %9s\n",
		"query", "op", "updates", "maint", "incr µs", "full µs", "speedup")

	for _, q := range watchQueries {
		res, err := watchMaintain(eng, st, q, updates)
		if err != nil {
			return nil, fmt.Errorf("maintenance %q: %w", q, err)
		}
		for _, r := range res {
			report.Maintenance = append(report.Maintenance, r)
			cprintf(c, "%-16s %-8s %7d %10d %12.1f %10.1f %8.1fx\n",
				r.Query, r.Op, r.Updates, r.Maintained, r.IncrementalUS, r.FullUS, r.Speedup)
		}
	}

	// Propagation over the real HTTP service.
	srv, err := server.New(server.Config{Engine: eng, Source: server.FromStore(st)})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cprintf(c, "%-12s %8s %11s %8s %7s %9s %9s %9s %9s\n",
		"subscribers", "updates", "deliveries", "resyncs", "errors", "mean ms", "p50", "p95", "p99")
	for _, w := range watchSubLevels {
		res, err := watchPropagation(ts.URL, w, 2*updates)
		if err != nil {
			return nil, fmt.Errorf("propagation %d subs: %w", w, err)
		}
		report.Propagation = append(report.Propagation, res)
		cprintf(c, "%-12d %8d %11d %8d %7d %9.3f %9.3f %9.3f %9.3f\n",
			res.Subscribers, res.Updates, res.Deliveries, res.Resyncs, res.Errors,
			res.MeanMS, res.P50MS, res.P95MS, res.P99MS)
	}
	return report, nil
}

// watchMaintain measures one standing query: per single-subtree insert and
// delete, the incremental maintenance cost of the materialized view vs a
// full re-execution through the serving path on the same epoch.
func watchMaintain(eng *xpath2sql.Engine, st *store.Store, query string, updates int) ([]WatchMaintResult, error) {
	ctx := context.Background()
	p, err := eng.PrepareString(ctx, query)
	if err != nil {
		return nil, err
	}
	vs, err := rdb.BuildViewState(st.View().DB, p.Program())
	if err != nil {
		return nil, err
	}
	deltas := make(chan store.TxnDelta, 2)
	st.SetOnApply(func(td store.TxnDelta) { deltas <- td })
	defer st.SetOnApply(nil)

	// advance applies one update to the view the way the hub's maintenance
	// matrix would, timing it; reports whether the incremental path ran.
	advance := func(td store.TxnDelta) (time.Duration, bool, error) {
		t0 := time.Now()
		err := rdb.ErrNonIncremental
		switch {
		case td.Op == store.OpInsert && vs.Insertable():
			_, err = vs.ApplyInsert(td.DB, ivm.BaseDeltaOf(td))
		case td.Op == store.OpDelete && vs.Deletable():
			_, err = vs.ApplyDelete(td.DB, td.Prev, td.Root, td.Deleted)
		case td.Op == store.OpUpdateText && vs.TextImmune():
			err = vs.ApplyText(td.DB)
		}
		if err == nil {
			return time.Since(t0), true, nil
		}
		t0 = time.Now()
		if _, _, err := vs.Rebuild(td.DB); err != nil {
			return 0, false, err
		}
		return time.Since(t0), false, nil
	}
	// fullRun recomputes the answer from scratch on the update's epoch —
	// what serving the query per update would cost without standing views.
	fullRun := func(td store.TxnDelta) (time.Duration, error) {
		t0 := time.Now()
		_, err := p.ExecuteOn(ctx, xpath2sql.NewLocalBackend(td.DB))
		return time.Since(t0), err
	}

	ins := WatchMaintResult{Query: query, Op: "insert", Updates: updates}
	del := WatchMaintResult{Query: query, Op: "delete", Updates: updates}
	var insInc, insFull, delInc, delFull time.Duration
	// All inserts first, then the matching deletes, oldest first: the view
	// grows to its largest before the first delete compacts it.
	roots := make([]int, 0, updates)
	for i := 0; i < updates; i++ {
		ur, err := st.InsertSubtree(1, storeFragment)
		if err != nil {
			return nil, err
		}
		roots = append(roots, ur.NodeID)
		td := <-deltas
		dt, maintained, err := advance(td)
		if err != nil {
			return nil, err
		}
		insInc += dt
		if maintained {
			ins.Maintained++
		}
		if dt, err := fullRun(td); err != nil {
			return nil, err
		} else {
			insFull += dt
		}
	}
	for _, id := range roots {
		if _, err := st.DeleteSubtree(id); err != nil {
			return nil, err
		}
		td := <-deltas
		dt, maintained, err := advance(td)
		if err != nil {
			return nil, err
		}
		delInc += dt
		if maintained {
			del.Maintained++
		}
		if dt, err := fullRun(td); err != nil {
			return nil, err
		} else {
			delFull += dt
		}
	}
	us := func(d time.Duration) float64 { return d.Seconds() * 1e6 / float64(updates) }
	ins.IncrementalUS, ins.FullUS = us(insInc), us(insFull)
	del.IncrementalUS, del.FullUS = us(delInc), us(delFull)
	if ins.IncrementalUS > 0 {
		ins.Speedup = ins.FullUS / ins.IncrementalUS
	}
	if del.IncrementalUS > 0 {
		del.Speedup = del.FullUS / del.IncrementalUS
	}
	return []WatchMaintResult{ins, del}, nil
}

// watchEvent mirrors the wire shape of one /v1/watch event.
type watchEvent struct {
	Type   string `json:"type"`
	Epoch  uint64 `json:"epoch"`
	Resync bool   `json:"resync,omitempty"`
}

// watchPropagation opens w SSE subscriptions (cycling the query mix), then
// applies updates single-subtree inserts/deletes and measures, per
// delivered delta, the time from just before the update request to the
// subscriber decoding the event for that epoch.
func watchPropagation(base string, w, updates int) (WatchPropResult, error) {
	res := WatchPropResult{Subscribers: w, Updates: updates}

	var mu sync.Mutex
	sent := map[uint64]time.Time{} // epoch → just-before-update instant
	var lats []float64             // milliseconds
	var resyncs, errs int
	var lastEpoch uint64

	var wg sync.WaitGroup
	stop := make(chan struct{})
	ready := make(chan error, w)
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			query := watchQueries[i%len(watchQueries)]
			blob, _ := json.Marshal(map[string]string{"query": query})
			resp, err := http.Post(base+"/v1/watch", "application/json", bytes.NewReader(blob))
			if err != nil {
				ready <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				ready <- fmt.Errorf("watch %q: status %d", query, resp.StatusCode)
				return
			}
			go func() { <-stop; resp.Body.Close() }() // unblocks the scanner on shutdown
			sc := bufio.NewScanner(resp.Body)
			first := true
			for sc.Scan() {
				line := sc.Bytes()
				if !bytes.HasPrefix(line, []byte("data: ")) {
					continue
				}
				var ev watchEvent
				if err := json.Unmarshal(line[len("data: "):], &ev); err != nil {
					mu.Lock()
					errs++
					mu.Unlock()
					continue
				}
				if first {
					first = false
					ready <- nil // snapshot received: subscription is live
					continue
				}
				now := time.Now()
				mu.Lock()
				if ev.Resync {
					resyncs++
				} else if t0, ok := sent[ev.Epoch]; ok {
					lats = append(lats, now.Sub(t0).Seconds()*1000)
				}
				done := lastEpoch != 0 && ev.Epoch >= lastEpoch
				mu.Unlock()
				if done {
					return
				}
			}
		}(i)
	}
	for i := 0; i < w; i++ {
		if err := <-ready; err != nil {
			close(stop)
			wg.Wait()
			return res, err
		}
	}

	fail := func(err error) (WatchPropResult, error) {
		close(stop)
		wg.Wait()
		return res, err
	}
	// The writer paces itself on its own subscription: waiting until the hub
	// publishes each epoch before sending the next update keeps the
	// maintainer queue drained, so a sample measures propagation of an
	// isolated update rather than time spent queued behind earlier ones.
	pacer, err := openWatchSSE(base, watchQueries[0])
	if err != nil {
		return fail(err)
	}
	defer pacer.Close()
	// Epochs are sequential, so one untimed priming pair pins the counter;
	// every subsequent update's epoch is known before the request is sent,
	// letting t0 be recorded first.
	id, ep, err := watchInsert(base)
	if err != nil {
		return fail(err)
	}
	if err := storeUpdate(base, map[string]any{"op": "delete_subtree", "node": id}); err != nil {
		return fail(err)
	}
	if err := pacer.waitEpoch(ep + 1); err != nil {
		return fail(err)
	}
	next := ep + 2
	mu.Lock()
	lastEpoch = ep + 1 + uint64(updates)
	mu.Unlock()
	for i := 0; i < updates/2; i++ {
		mu.Lock()
		sent[next] = time.Now()
		mu.Unlock()
		id, _, err := watchInsert(base)
		if err != nil {
			return fail(err)
		}
		if err := pacer.waitEpoch(next); err != nil {
			return fail(err)
		}
		next++
		mu.Lock()
		sent[next] = time.Now()
		mu.Unlock()
		if err := storeUpdate(base, map[string]any{"op": "delete_subtree", "node": id}); err != nil {
			return fail(err)
		}
		if err := pacer.waitEpoch(next); err != nil {
			return fail(err)
		}
		next++
	}
	// Subscribers exit on seeing the final epoch; force-stop stragglers
	// (e.g. after a resync swallowed the final delta) after a grace period.
	graceDone := make(chan struct{})
	go func() { wg.Wait(); close(graceDone) }()
	select {
	case <-graceDone:
	case <-time.After(10 * time.Second):
	}
	close(stop)
	wg.Wait()

	sort.Float64s(lats)
	res.Deliveries = len(lats)
	res.Resyncs = resyncs
	res.Errors = errs
	res.MeanMS = mean(lats)
	res.P50MS = percentile(lats, 0.50)
	res.P95MS = percentile(lats, 0.95)
	res.P99MS = percentile(lats, 0.99)
	return res, nil
}

// sseWatch is a bare /v1/watch SSE connection, used by the propagation
// writer to pace itself on the hub's own output.
type sseWatch struct {
	resp *http.Response
	sc   *bufio.Scanner
}

func openWatchSSE(base, query string) (*sseWatch, error) {
	blob, err := json.Marshal(map[string]string{"query": query})
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(base+"/v1/watch", "application/json", bytes.NewReader(blob))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("watch: status %d", resp.StatusCode)
	}
	return &sseWatch{resp: resp, sc: bufio.NewScanner(resp.Body)}, nil
}

func (s *sseWatch) Close() { s.resp.Body.Close() }

// waitEpoch consumes events until one at or past the epoch arrives.
func (s *sseWatch) waitEpoch(ep uint64) error {
	for s.sc.Scan() {
		line := s.sc.Bytes()
		if !bytes.HasPrefix(line, []byte("data: ")) {
			continue
		}
		var ev watchEvent
		if err := json.Unmarshal(line[len("data: "):], &ev); err != nil {
			continue
		}
		if ev.Epoch >= ep {
			return nil
		}
	}
	return fmt.Errorf("watch stream ended before epoch %d: %v", ep, s.sc.Err())
}

// watchInsert posts an insert_subtree and returns the new root ID and epoch.
func watchInsert(base string) (int, uint64, error) {
	blob, err := json.Marshal(map[string]any{
		"op": "insert_subtree", "parent": 1, "fragment": storeFragment,
	})
	if err != nil {
		return 0, 0, err
	}
	resp, err := http.Post(base+"/v1/update", "application/json", bytes.NewReader(blob))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var body struct {
		NodeID int    `json:"node_id"`
		Epoch  uint64 `json:"epoch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("insert: status %d", resp.StatusCode)
	}
	return body.NodeID, body.Epoch, nil
}
