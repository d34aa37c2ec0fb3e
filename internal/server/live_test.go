package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"xpath2sql"
	"xpath2sql/internal/store"
)

// newLiveServer builds a store-backed Server over the dept example. dir may
// be empty for an ephemeral store.
func newLiveServer(t *testing.T, dir string, mutate func(*Config)) (*Server, *store.Store) {
	t.Helper()
	d, db := deptFixture(t)
	st, err := store.Open(store.Config{DTD: d, Seed: db, Dir: dir, Fsync: store.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	cfg := Config{Engine: xpath2sql.New(d), Source: FromStore(st)}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, st
}

func queryCount(t *testing.T, url, q string) int {
	t.Helper()
	resp, body := postJSON(t, url+"/v1/query", queryRequest{Query: q})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query %q: status %d: %s", q, resp.StatusCode, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	return qr.Count
}

// TestUpdateEndpoint: inserts, text updates and deletes through /v1/update
// are immediately visible to /v1/query.
func TestUpdateEndpoint(t *testing.T) {
	s, _ := newLiveServer(t, "", nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	before := queryCount(t, ts.URL, "dept//course")

	resp, body := postJSON(t, ts.URL+"/v1/update", updateRequest{
		Op:       "insert_subtree",
		Parent:   1, // the dept root element
		Fragment: "<course><cno>cs99</cno><title>new</title><prereq></prereq><takenBy></takenBy></course>",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: status %d: %s", resp.StatusCode, body)
	}
	var ur updateResponse
	if err := json.Unmarshal(body, &ur); err != nil {
		t.Fatal(err)
	}
	if ur.Nodes != 5 || ur.NodeID == 0 || ur.Epoch == 0 {
		t.Fatalf("insert response %+v", ur)
	}
	if got := queryCount(t, ts.URL, "dept//course"); got != before+1 {
		t.Fatalf("dept//course = %d after insert, want %d", got, before+1)
	}

	// Update the new course's cno (first child of the inserted root).
	resp, body = postJSON(t, ts.URL+"/v1/update", updateRequest{
		Op: "update_text", Node: ur.NodeID + 1, Value: "cs100",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update_text: status %d: %s", resp.StatusCode, body)
	}
	if got := queryCount(t, ts.URL, "dept//cno[text()='cs100']"); got != 1 {
		t.Fatalf("updated cno not queryable: %d matches", got)
	}

	resp, body = postJSON(t, ts.URL+"/v1/update", updateRequest{Op: "delete_subtree", Node: ur.NodeID})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d: %s", resp.StatusCode, body)
	}
	var dr updateResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Nodes != 5 {
		t.Fatalf("delete removed %d nodes, want 5", dr.Nodes)
	}
	// A read says which epoch it read, so it can be checked against the
	// epoch a write returned.
	_, body = postJSON(t, ts.URL+"/v1/query", queryRequest{Query: "dept//course"})
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Watermark != dr.Epoch {
		t.Fatalf("read after the delete reports watermark %d; the delete was epoch %d", qr.Watermark, dr.Epoch)
	}
	// So does a batch: it pins one version for all its queries.
	_, body = postJSON(t, ts.URL+"/v1/batch", batchRequest{Queries: []string{"dept//course", "dept//project"}})
	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 2 || br.Results[0].Count != before || br.Watermark != dr.Epoch {
		t.Fatalf("batch after the delete: %d results, watermark %d; want 2 results (%d courses) at the delete's epoch %d: %s",
			len(br.Results), br.Watermark, before, dr.Epoch, body)
	}
	if got := queryCount(t, ts.URL, "dept//course"); got != before {
		t.Fatalf("dept//course = %d after delete, want %d", got, before)
	}
}

// TestUpdateErrorMapping: store faults map to typed HTTP errors — unknown
// node 404, DTD violation 422, bad fragment 400 — and never 500.
func TestUpdateErrorMapping(t *testing.T) {
	s, _ := newLiveServer(t, "", nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		req  updateRequest
		code int
		kind string
	}{
		{"unknown parent", updateRequest{Op: "insert_subtree", Parent: 99999, Fragment: "<course><cno>x</cno><title>y</title><prereq></prereq><takenBy></takenBy></course>"}, http.StatusNotFound, "unknown_node"},
		{"unknown delete", updateRequest{Op: "delete_subtree", Node: 99999}, http.StatusNotFound, "unknown_node"},
		{"unknown text", updateRequest{Op: "update_text", Node: 99999, Value: "x"}, http.StatusNotFound, "unknown_node"},
		{"dtd violation", updateRequest{Op: "insert_subtree", Parent: 1, Fragment: "<student><sno>s</sno><name>n</name><qualified></qualified></student>"}, http.StatusUnprocessableEntity, "invalid_update"},
		{"delete root", updateRequest{Op: "delete_subtree", Node: 1}, http.StatusUnprocessableEntity, "invalid_update"},
		{"bad fragment", updateRequest{Op: "insert_subtree", Parent: 1, Fragment: "<course><"}, http.StatusBadRequest, "bad_fragment"},
		{"missing fragment", updateRequest{Op: "insert_subtree", Parent: 1}, http.StatusBadRequest, "bad_request"},
		{"unknown op", updateRequest{Op: "upsert"}, http.StatusBadRequest, "bad_request"},
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/update", c.req)
		if resp.StatusCode != c.code {
			t.Errorf("%s: status %d, want %d (%s)", c.name, resp.StatusCode, c.code, body)
			continue
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Errorf("%s: %v in %s", c.name, err, body)
			continue
		}
		if er.Kind != c.kind {
			t.Errorf("%s: kind %q, want %q", c.name, er.Kind, c.kind)
		}
	}
}

// TestUpdateEndpointAbsentWithoutStore: a read-only server (no store) does
// not expose the update endpoints at all.
func TestUpdateEndpointAbsentWithoutStore(t *testing.T) {
	s := newDeptServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, _ := postJSON(t, ts.URL+"/v1/update", updateRequest{Op: "delete_subtree", Node: 2})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/v1/update on read-only server: status %d, want 404", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/admin/snapshot", struct{}{})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/admin/snapshot on read-only server: status %d, want 404", resp.StatusCode)
	}
}

// TestSnapshotEndpoint: durable stores checkpoint on demand; ephemeral
// stores answer 422 no_durability.
func TestSnapshotEndpoint(t *testing.T) {
	s, _ := newLiveServer(t, t.TempDir(), nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postJSON(t, ts.URL+"/v1/update", updateRequest{Op: "update_text", Node: 3, Value: "renamed"})
	resp, body := postJSON(t, ts.URL+"/admin/snapshot", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: status %d: %s", resp.StatusCode, body)
	}
	var sr snapshotResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Path == "" || sr.LSN == 0 {
		t.Fatalf("snapshot response %+v", sr)
	}

	eph, _ := newLiveServer(t, "", nil)
	te := httptest.NewServer(eph.Handler())
	defer te.Close()
	resp, body = postJSON(t, te.URL+"/admin/snapshot", struct{}{})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("ephemeral snapshot: status %d: %s", resp.StatusCode, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Kind != "no_durability" {
		t.Fatalf("kind %q, want no_durability", er.Kind)
	}
}

// TestStoreMetricsExposed: /metrics carries the store series after updates.
func TestStoreMetricsExposed(t *testing.T) {
	s, _ := newLiveServer(t, "", nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postJSON(t, ts.URL+"/v1/update", updateRequest{Op: "update_text", Node: 3, Value: "x"})
	postJSON(t, ts.URL+"/v1/update", updateRequest{Op: "delete_subtree", Node: 99999}) // rejected

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 1<<16)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	text := sb.String()
	for _, want := range []string{
		"xpathd_store_epoch 1",
		"xpathd_store_text_updates_total 1",
		"xpathd_store_rejected_total 1",
		"xpathd_store_apply_seconds_count 1",
		"xpathd_store_nodes",
		"xpathd_store_relabels_total 0", // a text update moves no label
		"xpathd_store_relabelled_nodes_total 0",
		"xpathd_store_catalog_chunks_copied_total 1", // and writes one value, in one chunk
		"xpathd_store_checkpoint_failures_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics lack %q", want)
		}
	}
	if !strings.Contains(text, `endpoint="update"`) {
		t.Error("metrics lack update endpoint request series")
	}
}

// TestQueriesPinEpochs: queries against a live store answer correctly while
// updates land — each sees one whole epoch, never a torn one.
func TestQueriesPinEpochs(t *testing.T) {
	s, st := newLiveServer(t, "", nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			frag := "<course><cno>b</cno><title>t</title><prereq></prereq><takenBy></takenBy></course>"
			res, err := st.InsertSubtree(1, frag)
			if err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			if _, err := st.DeleteSubtree(res.NodeID); err != nil {
				t.Errorf("delete: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 30; i++ {
		n := queryCount(t, ts.URL, "dept//course")
		if n < 2 || n > 3 { // seed has 2 courses; one insert may be in flight
			t.Fatalf("dept//course = %d mid-update, want 2 or 3", n)
		}
	}
	<-done
}
