package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"xpath2sql"
	"xpath2sql/internal/cluster"
	"xpath2sql/internal/difftest"
	"xpath2sql/internal/dtd"
	"xpath2sql/internal/rdb"
	"xpath2sql/internal/server"
	"xpath2sql/internal/store"
	"xpath2sql/internal/xpath"
)

// bothClients is one collection behind the router twice: split over
// in-process shards (Open), and split the same way over shard servers behind
// the HTTP client (Connect). calls[i] counts the /v1/query and /v1/update
// requests shard server i received — what the fleet was actually asked.
type bothClients struct {
	local, remote *cluster.Cluster
	servers       []*httptest.Server
	calls         []atomic.Int64
	owner         map[int]int
}

// openBoth builds the pair. shard0, when set, bounds the executions of the
// fleet's shard 0 and of no other (an in-process shard is bounded by the
// limits its caller passes).
func openBoth(t *testing.T, d *dtd.DTD, collection *rdb.DB, shards int, mode cluster.ReadMode, shard0 xpath2sql.Limits) *bothClients {
	t.Helper()
	pl := cluster.RoundRobinPlacement{}
	b := &bothClients{calls: make([]atomic.Int64, shards)}
	var err error
	if b.local, err = cluster.Open(cluster.Config{DTD: d, Shards: shards, Placement: pl, Mode: mode}, collection); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.local.Close() })
	parts, owner, err := cluster.SplitCollection(d, collection, shards, pl)
	if err != nil {
		t.Fatal(err)
	}
	b.owner = owner
	urls := make([]string, shards)
	for i, part := range parts {
		// Each shard allocates far above the collection and apart from the
		// others, as -node-id-base spaces a fleet.
		st, err := store.Open(store.Config{DTD: d, Seed: part, Fsync: store.FsyncNever, MinNextID: (i + 1) * shardIDSpace})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		var opts []xpath2sql.EngineOption
		if i == 0 {
			opts = append(opts, xpath2sql.WithLimits(shard0))
		}
		srv := newServer(t, server.Config{Engine: xpath2sql.New(d, opts...), Source: server.FromStore(st)})
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/v1/") {
				b.calls[i].Add(1)
			}
			srv.Handler().ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		b.servers = append(b.servers, ts)
		urls[i] = ts.URL
	}
	if b.remote, err = cluster.ConnectOwned(cluster.Config{Mode: mode}, urls, owner); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.remote.Close() })
	return b
}

// askedOnlyOwner runs f, which routes one request by the given node, and
// fails unless the fleet's shard owning that node received exactly one
// request meanwhile and the others none.
func (b *bothClients) askedOnlyOwner(t *testing.T, what string, node int, f func()) {
	t.Helper()
	got := make([]int64, len(b.calls))
	for i := range b.calls {
		got[i] = -b.calls[i].Load()
	}
	f()
	for i := range b.calls {
		got[i] += b.calls[i].Load()
	}
	for i, n := range got {
		if (i == b.owner[node]) != (n == 1) || n > 1 {
			t.Fatalf("%s: node %d lives on shard %d, and the shards were asked %v times", what, node, b.owner[node], got)
		}
	}
}

// same executes the program through both routers and fails unless they agree
// on everything a caller sees: the IDs, Degraded and Failed of an answer, or
// the kind of failure.
func (b *bothClients) same(t *testing.T, what string, tr *xpath2sql.Translation, doc int) *cluster.Answer {
	t.Helper()
	ctx := context.Background()
	la, lerr := b.local.Exec(ctx, tr.Program(), cluster.ExecOptions{Doc: doc})
	ra, rerr := b.remote.Exec(ctx, tr.Program(), cluster.ExecOptions{Doc: doc})
	if (lerr == nil) != (rerr == nil) || errors.Is(lerr, cluster.ErrDegraded) != errors.Is(rerr, cluster.ErrDegraded) {
		t.Fatalf("%s (doc %d): in-process shards: %v; fleet: %v", what, doc, lerr, rerr)
	}
	if lerr != nil {
		return nil
	}
	if !slices.Equal(la.IDs, ra.IDs) || la.Degraded != ra.Degraded || !slices.Equal(la.Failed, ra.Failed) {
		t.Fatalf("%s (doc %d): in-process shards answer %v degraded=%v failed=%v; fleet %v degraded=%v failed=%v",
			what, doc, la.IDs, la.Degraded, la.Failed, ra.IDs, ra.Degraded, ra.Failed)
	}
	return ra
}

// TestRouterSameOverBothClients: the router is one piece of code over two
// shard clients, so a collection answers the same whichever client holds it —
// scatter and document reads, all three read modes, before and after a shard
// dies, text literals that only survive the trip if the canonical query text
// round-trips — and the fleet is asked exactly what the routing says: one
// shard for a document read, one for an update.
func TestRouterSameOverBothClients(t *testing.T) {
	rec := rec41()
	d, types := rec.DTD, rec.Types
	collection := randCollection(t, d, 42, 6)
	e := xpath2sql.New(d)
	ctx := context.Background()
	const shards = 3

	// A text leaf of some document, to carry the hostile literals.
	leaf, leafType := 0, ""
	collection.EachNode(func(id int) {
		if l, _ := collection.Label(id); leaf == 0 && (l == "val" || l == "tag") {
			leaf, leafType = id, l
		}
	})
	if leaf == 0 {
		t.Fatal("the collection has no text leaf")
	}
	hostile := []string{`x"y`, `x\y`, `it's`, `both"'\`, "é\u2028]"}

	r := rand.New(rand.NewSource(9))
	var queries []string
	for len(queries) < 10 {
		q := difftest.QueryString(r, types)
		if _, err := e.TranslateString(ctx, q); err == nil {
			queries = append(queries, q)
		}
	}
	queries = append(queries, "doc//"+types[1], "//"+types[2])

	for _, mode := range []cluster.ReadMode{cluster.ReadStrict, cluster.ReadQuorum, cluster.ReadBestEffort} {
		t.Run(mode.String(), func(t *testing.T) {
			b := openBoth(t, d, collection, shards, mode, xpath2sql.Limits{})
			roots := b.local.DocRoots()

			nonEmpty := 0
			compareAll := func(when string) {
				t.Helper()
				for _, q := range queries {
					tr, err := e.TranslateString(ctx, q)
					if err != nil {
						t.Fatal(err)
					}
					if ans := b.same(t, when+": "+q, tr, 0); ans != nil && len(ans.IDs) > 0 {
						nonEmpty++
					}
					for _, root := range roots {
						b.same(t, when+": "+q, tr, root)
					}
				}
			}
			compareAll("all shards up")

			// A document read asks the owner and nobody else.
			tr, err := e.TranslateString(ctx, "doc//"+types[1])
			if err != nil {
				t.Fatal(err)
			}
			for _, root := range roots {
				b.askedOnlyOwner(t, "document read", root, func() { b.same(t, "counted document read", tr, root) })
			}

			// Hostile literals: written through both routers (one shard asked
			// each time), then selected by a query whose text holds them.
			for _, v := range hostile {
				b.askedOnlyOwner(t, "update_text", leaf, func() {
					for _, c := range []*cluster.Cluster{b.local, b.remote} {
						ack, err := c.Update(ctx, cluster.UpdateRequest{Op: store.OpUpdateText, Node: leaf, Value: v})
						if err != nil {
							t.Fatalf("update_text %q: %v", v, err)
						}
						if got := c.Stats().Shards[b.owner[leaf]].Epoch; got != ack.Epoch {
							t.Fatalf("update_text %q acked epoch %d, and the router reports its shard at epoch %d", v, ack.Epoch, got)
						}
					}
				})
				// Built as an AST, so the literal reaches the translator
				// whatever bytes it holds; the fleet gets it as printed text.
				tr, err := e.Translate(ctx, xpath.Desc{P: xpath.Filter{P: xpath.Label{Name: leafType}, Q: xpath.QText{C: v}}})
				if err != nil {
					t.Fatal(err)
				}
				if ans := b.same(t, fmt.Sprintf("literal %q", v), tr, 0); !slices.Contains(ans.IDs, leaf) {
					t.Fatalf("//%s[text()=%q] = %v through both routers, and node %d holds that value", leafType, v, ans.IDs, leaf)
				}
			}

			// An insert goes to the parent's owner alone, which allocates the
			// IDs; the directory learns them from the ack, so the delete of
			// what was inserted finds the same shard (and puts the two sides
			// back in step).
			var ins store.UpdateResult
			b.askedOnlyOwner(t, "insert_subtree", roots[0], func() {
				if ins, err = b.remote.Update(ctx, cluster.UpdateRequest{Op: store.OpInsert, Parent: roots[0], Fragment: "<t0></t0>"}); err != nil {
					t.Fatal(err)
				}
			})
			b.owner[ins.NodeID] = b.owner[roots[0]]
			b.askedOnlyOwner(t, "delete_subtree", ins.NodeID, func() {
				if _, err := b.remote.Update(ctx, cluster.UpdateRequest{Op: store.OpDelete, Node: ins.NodeID}); err != nil {
					t.Fatalf("delete of inserted node %d: %v", ins.NodeID, err)
				}
			})

			// One shard dies on both sides. Whatever the mode makes of that, it
			// makes the same of it through both clients.
			const victim = 1
			b.local.Shard(victim).Kill()
			b.servers[victim].Close()
			compareAll("shard1 dead")
			lerr, rerr := b.local.Ready(ctx), b.remote.Ready(ctx)
			if (lerr == nil) != (rerr == nil) || (lerr == nil) != (mode != cluster.ReadStrict) {
				t.Fatalf("Ready with one of %d shards dead, mode %s: in-process %v, fleet %v", shards, mode, lerr, rerr)
			}
			if nonEmpty == 0 {
				t.Fatal("every compared answer was empty: the comparison proved nothing")
			}
		})
	}
}

// TestRequestFaultsThroughBothClients: what is the request's fault is
// reported as that — never retried into a degraded answer, never a 5xx —
// through either client: a resource limit tripping on one shard under
// best-effort, a "doc" that names no document root.
func TestRequestFaultsThroughBothClients(t *testing.T) {
	rec := rec41()
	d, types := rec.DTD, rec.Types
	collection := randCollection(t, d, 42, 6)
	tight := xpath2sql.Limits{MaxTuples: 1}
	b := openBoth(t, d, collection, 3, cluster.ReadBestEffort, tight)
	routers := map[string]*httptest.Server{
		"in-process shards": serveCluster(t, d, b.local, xpath2sql.WithLimits(tight)),
		"fleet":             serveCluster(t, d, b.remote),
	}
	nonRoot := 0
	collection.EachNode(func(id int) {
		if nonRoot == 0 && collection.Parent(id) != 0 {
			nonRoot = id
		}
	})
	for name, ts := range routers {
		code, body := postJSON(t, ts.URL+"/v1/query", map[string]any{"query": "doc//" + types[1]}, nil)
		if code != http.StatusUnprocessableEntity || !strings.Contains(string(body), `"kind":"limit"`) {
			t.Fatalf("%s: a MaxTuples trip on one shard under best-effort: %d %s, want 422 limit", name, code, body)
		}
		code, body = postJSON(t, ts.URL+"/v1/query", map[string]any{"query": "doc//" + types[1], "doc": nonRoot}, nil)
		if code != http.StatusNotFound || !strings.Contains(string(body), `"kind":"unknown_node"`) {
			t.Fatalf("%s: doc=%d, which is no document root: %d %s, want 404 unknown_node", name, nonRoot, code, body)
		}
	}
	for name, c := range map[string]*cluster.Cluster{"in-process shards": b.local, "fleet": b.remote} {
		if s := c.Stats(); s.Degraded != 0 || s.Failures != 0 {
			t.Fatalf("%s: the request's faults were charged to the shards: %d degraded answers, %d shard failures", name, s.Degraded, s.Failures)
		}
	}
}

// TestFleetExplainAndTranslate: the fleet's edge answers what one xpathd
// answers — "explain" is the router's plan with one gather line a shard, and
// /v1/translate is served without asking a shard.
func TestFleetExplainAndTranslate(t *testing.T) {
	servers, _ := newHTTPFleet(t, 2)
	router := newRouter(t, servers, cluster.ReadStrict)
	var qr struct {
		Count   int    `json:"count"`
		Explain string `json:"explain"`
	}
	if code, body := postJSON(t, router.URL+"/v1/query", map[string]any{"query": "doc//t1", "explain": true}, &qr); code != http.StatusOK {
		t.Fatalf("explain through the router: %d %s", code, body)
	}
	for _, want := range []string{"shard0", "shard1", "gather", "result:"} {
		if !strings.Contains(qr.Explain, want) {
			t.Fatalf("explain lacks %q:\n%s", want, qr.Explain)
		}
	}
	var tr struct {
		SQL map[string]string `json:"sql"`
	}
	if code, body := postJSON(t, router.URL+"/v1/translate", map[string]any{"query": "doc//t1"}, &tr); code != http.StatusOK || tr.SQL["db2"] == "" {
		t.Fatalf("/v1/translate through the router: %d %s", code, body)
	}
}
