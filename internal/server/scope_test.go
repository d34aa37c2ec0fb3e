package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"xpath2sql"
	"xpath2sql/internal/backend/fakedb"
	"xpath2sql/internal/cluster"
	"xpath2sql/internal/store"
)

// deptCollection is the dept example three times over as one collection, and
// the root of each copy. Every query answers the same nodes in each document,
// shifted by the document's offset.
func deptCollection(t *testing.T) (*xpath2sql.DTD, *xpath2sql.DB, []int) {
	t.Helper()
	d, err := xpath2sql.ParseDTD(deptDTD)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xpath2sql.ParseXML(deptXML)
	if err != nil {
		t.Fatal(err)
	}
	var docs []*xpath2sql.DB
	var roots []int
	for i := 0; i < 3; i++ {
		db, err := xpath2sql.Shred(doc, d)
		if err != nil {
			t.Fatal(err)
		}
		roots = append(roots, 1+i*db.NumNodes())
		docs = append(docs, db)
	}
	coll, err := cluster.BuildCollection(d, docs)
	if err != nil {
		t.Fatal(err)
	}
	return d, coll, roots
}

func scopedQuery(t *testing.T, url, q string, doc int) (int, queryResponse, errorResponse) {
	t.Helper()
	resp, body := postJSON(t, url+"/v1/query", queryRequest{Query: q, Doc: doc})
	var qr queryResponse
	var er errorResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatalf("%v in %s", err, body)
		}
	} else if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("%v in %s", err, body)
	}
	return resp.StatusCode, qr, er
}

// TestDocScopeOnSingleSources: "doc" works on a static database and on a live
// store — the answer is the document's part of the unscoped answer — names a
// non-root as 404, and is refused, not ignored, by a source that cannot scope.
func TestDocScopeOnSingleSources(t *testing.T) {
	d, coll, roots := deptCollection(t)
	st, err := store.Open(store.Config{DTD: d, Seed: coll, Fsync: store.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sources := map[string]Source{"FromDB": FromDB(coll), "FromStore": FromStore(st)}
	for name, src := range sources {
		t.Run(name, func(t *testing.T) {
			s := newServer(t, Config{Engine: xpath2sql.New(d), Source: src})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			for _, q := range []string{"dept//project", "dept//course", "//cno", "dept/course[not(.//project)]"} {
				_, whole, _ := scopedQuery(t, ts.URL, q, 0)
				var union []int
				for i, root := range roots {
					code, qr, er := scopedQuery(t, ts.URL, q, root)
					if code != http.StatusOK {
						t.Fatalf("%s in document %d: status %d: %+v", q, root, code, er)
					}
					var want []int
					for _, id := range whole.IDs {
						if id >= root && id < root+roots[1]-roots[0] {
							want = append(want, id)
						}
					}
					if !slices.Equal(qr.IDs, want) && len(qr.IDs)+len(want) > 0 {
						t.Fatalf("%s in document %d (#%d) = %v, the unscoped answer holds %v there", q, root, i, qr.IDs, want)
					}
					union = append(union, qr.IDs...)
				}
				if !slices.Equal(union, whole.IDs) {
					t.Fatalf("%s: the documents' answers %v do not add up to the unscoped %v", q, union, whole.IDs)
				}
			}
			for _, doc := range []int{roots[0] + 1, 100000} { // an inner node, an unknown one
				if code, _, er := scopedQuery(t, ts.URL, "dept//course", doc); code != http.StatusNotFound || er.Kind != "unknown_node" {
					t.Fatalf("doc %d: status %d kind %q, want 404 unknown_node", doc, code, er.Kind)
				}
			}
			if code, _, er := scopedQuery(t, ts.URL, "dept//course", -1); code != http.StatusBadRequest {
				t.Fatalf("negative doc: status %d (%+v), want 400", code, er)
			}
		})
	}

	t.Run("FromStore sees updates", func(t *testing.T) {
		s := newServer(t, Config{Engine: xpath2sql.New(d), Source: sources["FromStore"]})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		before := make([]int, len(roots))
		for i, root := range roots {
			_, qr, _ := scopedQuery(t, ts.URL, "dept//cno", root)
			before[i] = qr.Count
		}
		// A course under the middle document's root moves every later
		// interval, the last document's root included.
		const frag = "<course><cno>new</cno><title>t</title><prereq></prereq><takenBy></takenBy></course>"
		if resp, body := postJSON(t, ts.URL+"/v1/update", updateRequest{Op: "insert_subtree", Parent: roots[1], Fragment: frag}); resp.StatusCode != http.StatusOK {
			t.Fatalf("insert: status %d: %s", resp.StatusCode, body)
		}
		for i, root := range roots {
			_, qr, _ := scopedQuery(t, ts.URL, "dept//cno", root)
			want := before[i]
			if i == 1 {
				want++
			}
			if qr.Count != want {
				t.Fatalf("after the insert, document %d has %d cno, want %d", root, qr.Count, want)
			}
		}
	})

	// Scope is a property of one run: scoped and unscoped requests in flight
	// side by side each get their own count.
	t.Run("scoped and unscoped interleave", func(t *testing.T) {
		s := newServer(t, Config{Engine: xpath2sql.New(d), Source: sources["FromDB"], MaxConcurrent: 8})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		const perDoc = 2 // the dept example holds two courses per document
		var wg sync.WaitGroup
		for i := 0; i < 32; i++ {
			body, want := `{"query": "dept//course"}`, len(roots)*perDoc
			if i%2 == 1 {
				body, want = fmt.Sprintf(`{"query": "dept//course", "doc": %d}`, roots[2]), perDoc
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				var qr queryResponse
				if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil || qr.Count != want {
					t.Errorf("request %d (%s): status %d, %d answers (decode error %v), want %d", i, body, resp.StatusCode, qr.Count, err, want)
				}
			}()
		}
		wg.Wait()
	})

	t.Run("FromBackend refuses", func(t *testing.T) {
		ctx := context.Background()
		dsn := "memory://server-scope"
		fakedb.Reset(dsn)
		defer fakedb.Reset(dsn)
		be, err := xpath2sql.OpenSQLBackend(ctx, fakedb.DriverName, dsn)
		if err != nil {
			t.Fatal(err)
		}
		defer be.Close()
		if err := be.Load(ctx, coll); err != nil {
			t.Fatal(err)
		}
		s := newServer(t, Config{Engine: xpath2sql.New(d), Source: FromBackend(be)})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		if code, _, er := scopedQuery(t, ts.URL, "dept//course", roots[1]); code != http.StatusUnprocessableEntity || er.Kind != "unsupported" {
			t.Fatalf("scoped query on a SQL backend: status %d kind %q, want 422 unsupported", code, er.Kind)
		}
		if code, qr, _ := scopedQuery(t, ts.URL, "dept//course", 0); code != http.StatusOK || qr.Count == 0 {
			t.Fatalf("unscoped query on the same backend: status %d count %d", code, qr.Count)
		}
	})
}

// TestClusterBatchScattersConcurrently: a /v1/batch of Q queries through a
// cluster source has all Q scatters in flight at once — over a fleet, one
// round trip's wait, not Q of them. No clock decides it: each fake shard holds
// every /v1/query until Q of them have arrived and fails them all if that
// never happens, so a batch run query by query cannot pass. Answers come back
// in request order.
func TestClusterBatchScattersConcurrently(t *testing.T) {
	d, err := xpath2sql.ParseDTD(deptDTD)
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{"dept//course", "dept//project", "dept//cno", "dept//student"}
	var fleet []cluster.RemoteShard
	for k := 0; k < 2; k++ {
		var mu sync.Mutex
		arrived, all := 0, make(chan struct{})
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var req queryRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			mu.Lock()
			if arrived++; arrived == len(queries) {
				close(all)
			}
			mu.Unlock()
			select {
			case <-all:
			case <-time.After(5 * time.Second):
				http.Error(w, "the batch's other queries never arrived: it is not running them concurrently", http.StatusInternalServerError)
				return
			}
			i := slices.Index(queries, req.Query)
			fmt.Fprintf(w, `{"ids":[%d],"watermark":%d}`, k*100+i, 10*(k+1)+i)
		}))
		defer ts.Close()
		fleet = append(fleet, cluster.RemoteShard{URL: ts.URL, Base: k << 20})
	}
	cl, err := cluster.Connect(cluster.Config{}, fleet)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	s := newServer(t, Config{Engine: xpath2sql.New(d), Source: FromCluster(cl)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/batch", batchRequest{Queries: queries})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch through the cluster: %d %s", resp.StatusCode, body)
	}
	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		if want := []int{i, 100 + i}; len(br.Results) != len(queries) || !slices.Equal(br.Results[i].IDs, want) {
			t.Fatalf("results[%d] (%s) = %+v, want ids %v: answers are not in request order", i, queries[i], br.Results, want)
		}
	}
	if br.Watermark != 10 {
		t.Fatalf("batch watermark %d, want 10: the oldest epoch any shard answered any of the queries at", br.Watermark)
	}
}
