package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"xpath2sql"
	"xpath2sql/internal/cluster"
	"xpath2sql/internal/dtd"
	"xpath2sql/internal/server"
	"xpath2sql/internal/store"
)

// The fleet tests drive what cmd/xpathrouter runs — a server over
// cluster.Connect — against real internal/server instances, the same servers
// cmd/xpathd boots, each serving one document over a disjoint node-ID range,
// exactly like an xpathd fleet started with disjoint -node-id-base values.

const shardIDSpace = 1 << 20

// newHTTPFleet boots n shard servers over the fixed random recursive DTD,
// shard i rebased to base i*shardIDSpace, and returns their httptest servers
// plus each shard's live store.
func newHTTPFleet(t *testing.T, n int) ([]*httptest.Server, []*store.Store) {
	t.Helper()
	d := rec41().DTD
	e := xpath2sql.New(d)
	servers := make([]*httptest.Server, n)
	stores := make([]*store.Store, n)
	for i := 0; i < n; i++ {
		doc, err := xpath2sql.ParseXML(shardDoc(i))
		if err != nil {
			t.Fatal(err)
		}
		db, err := xpath2sql.Shred(doc, d)
		if err != nil {
			t.Fatal(err)
		}
		db, err = cluster.Rebase(d, db, i*shardIDSpace)
		if err != nil {
			t.Fatal(err)
		}
		st, err := store.Open(store.Config{DTD: d, Seed: db, Fsync: store.FsyncNever, MinNextID: i * shardIDSpace})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		srv, err := server.New(server.Config{Engine: e, Source: server.FromStore(st)})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		servers[i] = ts
		stores[i] = st
	}
	return servers, stores
}

// shardDoc builds shard i's document: nested t0/t1 chains with distinct text
// values per shard, valid under rec41()'s productions (every child
// list is star-quantified, t0 → t1 → …).
func shardDoc(i int) string {
	var b strings.Builder
	b.WriteString("<doc>")
	for j := 0; j <= i; j++ {
		fmt.Fprintf(&b, "<t0><t1></t1><t1><t2></t2></t1></t0>")
	}
	b.WriteString("</doc>")
	return b.String()
}

func newRouter(t *testing.T, servers []*httptest.Server, mode cluster.ReadMode) *httptest.Server {
	t.Helper()
	shards := make([]cluster.RemoteShard, len(servers))
	for i, s := range servers {
		shards[i] = cluster.RemoteShard{URL: s.URL, Base: i * shardIDSpace}
	}
	cl, err := cluster.Connect(cluster.Config{Mode: mode}, shards)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	d := rec41().DTD
	return serveCluster(t, d, cl)
}

// serveCluster puts the server cmd/xpathrouter builds in front of a cluster.
func serveCluster(t *testing.T, d *dtd.DTD, cl *cluster.Cluster, opts ...xpath2sql.EngineOption) *httptest.Server {
	t.Helper()
	srv, err := server.New(server.Config{Engine: xpath2sql.New(d, opts...), Source: server.FromCluster(cl), Service: "xpathrouter"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, req any, out any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("unmarshal %q: %v", buf.String(), err)
		}
	}
	return resp.StatusCode, buf.Bytes()
}

type wireQuery struct {
	IDs          []int    `json:"ids"`
	Count        int      `json:"count"`
	Degraded     bool     `json:"degraded"`
	FailedShards []string `json:"failed_shards"`
}

type wireUpdate struct {
	NodeID int    `json:"node_id"`
	Nodes  int    `json:"nodes"`
	Epoch  uint64 `json:"epoch"`
}

type wireBatch struct {
	Results []wireQuery `json:"results"`
}

// TestFleetScatterMerge: the router's merged /v1/query answer must be
// exactly the sorted union of the per-shard answers, and /v1/batch must merge
// per-query.
func TestFleetScatterMerge(t *testing.T) {
	servers, _ := newHTTPFleet(t, 2)
	router := newRouter(t, servers, cluster.ReadStrict)

	queries := []string{"doc//t1", "doc/t0/t1[t2]", "doc//t2"}
	var unions [][]int
	for _, q := range queries {
		var want []int
		for _, s := range servers {
			var qr wireQuery
			if code, body := postJSON(t, s.URL+"/v1/query", map[string]any{"query": q}, &qr); code != http.StatusOK {
				t.Fatalf("direct shard query %s: %d %s", q, code, body)
			}
			want = append(want, qr.IDs...)
		}
		slices.Sort(want)
		unions = append(unions, want)

		var got wireQuery
		if code, body := postJSON(t, router.URL+"/v1/query", map[string]any{"query": q}, &got); code != http.StatusOK {
			t.Fatalf("routed query %s: %d %s", q, code, body)
		}
		if !slices.Equal(got.IDs, want) || got.Count != len(want) {
			t.Fatalf("routed %s = %v (count %d), union of shards %v", q, got.IDs, got.Count, want)
		}
		if got.Degraded {
			t.Fatalf("routed %s degraded with all shards up", q)
		}
		if len(want) == 0 {
			t.Fatalf("query %s answered empty everywhere; the merge proved nothing", q)
		}
	}

	var br wireBatch
	if code, body := postJSON(t, router.URL+"/v1/batch", map[string]any{"queries": queries}, &br); code != http.StatusOK {
		t.Fatalf("routed batch: %d %s", code, body)
	}
	if len(br.Results) != len(queries) {
		t.Fatalf("batch returned %d results for %d queries", len(br.Results), len(queries))
	}
	for i := range queries {
		if !slices.Equal(br.Results[i].IDs, unions[i]) {
			t.Fatalf("batch[%d] (%s) = %v, want %v", i, queries[i], br.Results[i].IDs, unions[i])
		}
	}

	// A parse error is the request's fault: a 4xx (now at the edge, before
	// any shard is asked), not a shard failure.
	if code, body := postJSON(t, router.URL+"/v1/query", map[string]any{"query": "doc//"}, nil); code < 400 || code >= 500 {
		t.Fatalf("malformed query through router: %d %s, want a forwarded 4xx", code, body)
	}
}

// TestFleetUpdateOwnership: an update lands on exactly the shard owning the
// node; the ack is the owner's and later reads see the write. Unknown nodes
// yield the 404 of the shard whose range they fall in.
func TestFleetUpdateOwnership(t *testing.T) {
	servers, stores := newHTTPFleet(t, 2)
	router := newRouter(t, servers, cluster.ReadStrict)

	// Shard 1's document root is its rebased first node.
	parent := shardIDSpace + 1
	var ur wireUpdate
	code, body := postJSON(t, router.URL+"/v1/update",
		map[string]any{"op": "insert_subtree", "parent": parent, "fragment": "<t0><t1></t1></t0>"}, &ur)
	if code != http.StatusOK {
		t.Fatalf("routed insert: %d %s", code, body)
	}
	if ur.Nodes != 2 || ur.NodeID < shardIDSpace {
		t.Fatalf("insert ack %+v, want 2 nodes allocated in shard 1's ID range", ur)
	}
	if got := stores[0].View().Seq; got != 0 {
		t.Fatalf("shard 0 advanced to epoch %d on a write it does not own", got)
	}
	if got := stores[1].View().Seq; got != ur.Epoch {
		t.Fatalf("shard 1 epoch %d, ack says %d", got, ur.Epoch)
	}

	var qr wireQuery
	if code, body := postJSON(t, router.URL+"/v1/query", map[string]any{"query": "doc//t1"}, &qr); code != http.StatusOK {
		t.Fatalf("query after insert: %d %s", code, body)
	}
	if !slices.Contains(qr.IDs, ur.NodeID+1) {
		t.Fatalf("merged answer %v does not include inserted t1 node %d", qr.IDs, ur.NodeID+1)
	}

	if code, _ := postJSON(t, router.URL+"/v1/update",
		map[string]any{"op": "delete_subtree", "node": ur.NodeID}, nil); code != http.StatusOK {
		t.Fatalf("routed delete of %d: %d", ur.NodeID, code)
	}

	// A node no shard holds: the shard whose range it falls in answers 404 and
	// the router forwards it.
	if code, body := postJSON(t, router.URL+"/v1/update",
		map[string]any{"op": "delete_subtree", "node": 5 * shardIDSpace}, nil); code != http.StatusNotFound {
		t.Fatalf("delete of unowned node: %d %s, want 404", code, body)
	}
}

// TestFleetDegradation: with a shard process gone, strict mode fails
// with 503, best-effort serves the survivors' union marked degraded, and
// /readyz follows the mode.
func TestFleetDegradation(t *testing.T) {
	servers, _ := newHTTPFleet(t, 2)
	strict := newRouter(t, servers, cluster.ReadStrict)
	bestEffort := newRouter(t, servers, cluster.ReadBestEffort)

	var survivors wireQuery
	if code, body := postJSON(t, servers[0].URL+"/v1/query", map[string]any{"query": "doc//t1"}, &survivors); code != http.StatusOK {
		t.Fatalf("direct shard 0 query: %d %s", code, body)
	}

	servers[1].Close() // the shard process dies

	if code, body := postJSON(t, strict.URL+"/v1/query", map[string]any{"query": "doc//t1"}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("strict query with a dead shard: %d %s, want 503", code, body)
	}

	var qr wireQuery
	if code, body := postJSON(t, bestEffort.URL+"/v1/query", map[string]any{"query": "doc//t1"}, &qr); code != http.StatusOK {
		t.Fatalf("best-effort query with a dead shard: %d %s", code, body)
	}
	if !qr.Degraded || !slices.Equal(qr.FailedShards, []string{"shard1"}) {
		t.Fatalf("best-effort answer degraded=%v failed=%v, want degraded naming shard1", qr.Degraded, qr.FailedShards)
	}
	if !slices.Equal(qr.IDs, survivors.IDs) {
		t.Fatalf("best-effort answer %v, want surviving shard's %v", qr.IDs, survivors.IDs)
	}

	for url, want := range map[string]int{
		strict.URL + "/readyz":     http.StatusServiceUnavailable,
		bestEffort.URL + "/readyz": http.StatusOK,
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s = %d, want %d", url, resp.StatusCode, want)
		}
	}

	// Router metrics render and count the degradation.
	resp, err := http.Get(bestEffort.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, metric := range []string{"cluster_degraded_answers_total 1", `cluster_shard_failures_total{shard="shard1"} 1`} {
		if !strings.Contains(buf.String(), metric) {
			t.Fatalf("router metrics missing %q:\n%s", metric, buf.String())
		}
	}
}

// TestFleetRetry: a shard call that fails as the shard's fault is made once
// more and no further; one that fails as the request's fault is not repeated.
// Hedges counts the second calls, Failures the calls that stayed failed.
func TestFleetRetry(t *testing.T) {
	servers, _ := newHTTPFleet(t, 2)
	ctx := context.Background()
	d := rec41().DTD
	tr, err := xpath2sql.New(d).TranslateString(ctx, "doc//t1")
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name   string
		status int   // what shard 1 answers ...
		faulty int64 // ... to its first this-many /v1/query calls
		// What that comes to: the calls shard 1 received, the router's
		// counters for it, and the outcome of the scatter.
		calls, hedges, failures int64
		outcome                 func(ans *cluster.Answer, err error) bool
	}{
		{"500 once, then 200", http.StatusInternalServerError, 1, 2, 1, 0, func(ans *cluster.Answer, err error) bool {
			return err == nil && !ans.Degraded && len(ans.IDs) == 2+4 // shardDoc(0) and shardDoc(1) hold 2 and 4 t1 elements
		}},
		{"500 every time", http.StatusInternalServerError, math.MaxInt64, 2, 1, 1, func(_ *cluster.Answer, err error) bool {
			return errors.Is(err, cluster.ErrDegraded)
		}},
		{"429", http.StatusTooManyRequests, math.MaxInt64, 1, 0, 0, func(_ *cluster.Answer, err error) bool {
			var se *cluster.ShardError
			return errors.As(err, &se) && se.Status == http.StatusTooManyRequests && se.Shard == "shard1"
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int64
			flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/query" && calls.Add(1) <= tc.faulty {
					w.WriteHeader(tc.status)
					fmt.Fprint(w, `{"error":"injected","kind":"saturated"}`)
					return
				}
				servers[1].Config.Handler.ServeHTTP(w, r)
			}))
			defer flaky.Close()
			cl, err := cluster.Connect(cluster.Config{Mode: cluster.ReadStrict}, []cluster.RemoteShard{
				{URL: servers[0].URL, Base: 0}, {URL: flaky.URL, Base: shardIDSpace},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			ans, err := cl.Exec(ctx, tr.Program(), cluster.ExecOptions{})
			if !tc.outcome(ans, err) {
				t.Fatalf("scatter: answer %+v, err %v", ans, err)
			}
			s := cl.Stats()
			if got := calls.Load(); got != tc.calls || s.Shards[1].Hedges != tc.hedges || s.Failures != tc.failures {
				t.Fatalf("shard1 was called %d times, %d of them retries, and charged %d failures; want %d, %d, %d",
					got, s.Shards[1].Hedges, s.Failures, tc.calls, tc.hedges, tc.failures)
			}
		})
	}
}
