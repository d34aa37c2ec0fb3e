package server

// Backend-mode serving: a Server built with Config.Backend executes through
// the storage-neutral Backend interface — here the database/sql executor
// over the in-repo fake driver — instead of the in-process *DB. (Test files
// are among the only places the fake driver may be linked.)

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"xpath2sql"
	"xpath2sql/internal/backend/fakedb"
)

// newBackendServer builds a Server in backend mode over the dept example,
// with the document loaded into a SQL backend on the fake driver.
func newBackendServer(t *testing.T) *Server {
	t.Helper()
	d, db := deptFixture(t)
	ctx := context.Background()
	dsn := "memory://server-" + t.Name()
	fakedb.Reset(dsn)
	t.Cleanup(func() { fakedb.Reset(dsn) })
	be, err := xpath2sql.OpenSQLBackend(ctx, fakedb.DriverName, dsn)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { be.Close() })
	if err := be.Load(ctx, db); err != nil {
		t.Fatal(err)
	}
	return newServer(t, Config{Engine: xpath2sql.New(d), Source: FromBackend(be)})
}

// TestBackendModeQuery: /v1/query over the SQL backend answers exactly as
// the in-process server does.
func TestBackendModeQuery(t *testing.T) {
	bs := httptest.NewServer(newBackendServer(t).Handler())
	defer bs.Close()
	ds := httptest.NewServer(newDeptServer(t, nil).Handler())
	defer ds.Close()

	for _, q := range []string{"dept//project", "//course[.//prereq]", "//course/cno"} {
		resp, body := postJSON(t, bs.URL+"/v1/query", queryRequest{Query: q})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", q, resp.StatusCode, body)
		}
		var got, want queryResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("%v in %s", err, body)
		}
		_, dbody := postJSON(t, ds.URL+"/v1/query", queryRequest{Query: q})
		if err := json.Unmarshal(dbody, &want); err != nil {
			t.Fatal(err)
		}
		if got.Count != want.Count {
			t.Fatalf("%s: backend server answered %+v, in-process %+v", q, got, want)
		}
		if got.Stats.StmtsRun == 0 {
			t.Fatalf("%s: stats not populated: %+v", q, got.Stats)
		}
	}

	// User faults still map to 4xx in backend mode.
	resp, _ := postJSON(t, bs.URL+"/v1/query", queryRequest{Query: "dept///"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("parse error: status %d, want 400", resp.StatusCode)
	}
}

// TestBackendModeBatch: /v1/batch runs query by query on the backend and
// reports per-query and total stats.
func TestBackendModeBatch(t *testing.T) {
	bs := httptest.NewServer(newBackendServer(t).Handler())
	defer bs.Close()

	resp, body := postJSON(t, bs.URL+"/v1/batch", batchRequest{
		Queries: []string{"dept//project", "dept//course", "//student"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatalf("%v in %s", err, body)
	}
	if len(br.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(br.Results))
	}
	if br.Results[0].Count != 1 || br.Results[1].Count != 2 || br.Results[2].Count != 0 {
		t.Fatalf("batch counts %+v, want 1/2/0", br.Results)
	}
	if br.Stats.StmtsRun == 0 {
		t.Fatalf("total stats not populated: %+v", br.Stats)
	}
	perQuery := 0
	for _, item := range br.Results {
		perQuery += item.Stats.StmtsRun
	}
	if perQuery != br.Stats.StmtsRun {
		t.Fatalf("total StmtsRun %d != sum of per-query %d", br.Stats.StmtsRun, perQuery)
	}
}

// TestBackendModeTranslate: SQL rendering is storage-independent and keeps
// working in backend mode; update/snapshot endpoints do not exist.
func TestBackendModeTranslate(t *testing.T) {
	bs := httptest.NewServer(newBackendServer(t).Handler())
	defer bs.Close()

	resp, body := postJSON(t, bs.URL+"/v1/translate", translateRequest{Query: "dept//project"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "WITH") {
		t.Fatalf("no recursive SQL in translation: %s", body)
	}
	resp, _ = postJSON(t, bs.URL+"/v1/update", map[string]string{"op": "delete_subtree"})
	if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("update in backend mode: status %d, want 404/405", resp.StatusCode)
	}
}

// TestBackendConfigValidation: exactly one data source, and the removed
// BatchWindow setting is refused rather than ignored, whatever the source.
func TestBackendConfigValidation(t *testing.T) {
	d, err := xpath2sql.ParseDTD(deptDTD)
	if err != nil {
		t.Fatal(err)
	}
	eng := xpath2sql.New(d)
	doc, err := xpath2sql.ParseXML(deptXML)
	if err != nil {
		t.Fatal(err)
	}
	db, err := xpath2sql.Shred(doc, d)
	if err != nil {
		t.Fatal(err)
	}
	be := xpath2sql.NewLocalBackend(db)

	if _, err := New(Config{Engine: eng}); err == nil {
		t.Fatal("no data source accepted")
	}
	for name, src := range map[string]Source{"FromDB": FromDB(db), "FromBackend": FromBackend(be)} {
		if _, err := New(Config{Engine: eng, Source: src, BatchWindow: time.Millisecond}); err == nil || !strings.Contains(err.Error(), "removed") {
			t.Fatalf("%s: BatchWindow > 0 gave %v, want an error saying micro-batching was removed", name, err)
		}
		// What benchmark/layers.go passes.
		if _, err := New(Config{Engine: eng, Source: src, BatchWindow: 0, MaxBatch: 16}); err != nil {
			t.Fatalf("%s: BatchWindow 0, MaxBatch 16 rejected: %v", name, err)
		}
	}
	if _, err := New(Config{Engine: eng, Source: FromBackend(be)}); err != nil {
		t.Fatalf("backend-only config rejected: %v", err)
	}
}
