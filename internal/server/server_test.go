package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xpath2sql"
	"xpath2sql/internal/store"
)

// The paper's dept running example (§2, Example 2.1): recursive through
// course → prereq → course.
const deptDTD = `<!ELEMENT dept (course*)>
<!ELEMENT course (cno, title, prereq, takenBy, project*)>
<!ELEMENT prereq (course*)>
<!ELEMENT takenBy (student*)>
<!ELEMENT student (sno, name, qualified)>
<!ELEMENT qualified (course*)>
<!ELEMENT project (pno, ptitle, required)>
<!ELEMENT required (course*)>
<!ELEMENT cno (#PCDATA)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT sno (#PCDATA)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT pno (#PCDATA)>
<!ELEMENT ptitle (#PCDATA)>`

const deptXML = `<dept>
  <course>
    <cno>cs11</cno><title>db</title>
    <prereq>
      <course><cno>cs66</cno><title>fm</title><prereq/><takenBy/>
        <project><pno>p1</pno><ptitle>x</ptitle><required/></project>
      </course>
    </prereq>
    <takenBy/>
  </course>
</dept>`

// deptFixture parses the dept example's DTD and shreds its document.
func deptFixture(t *testing.T) (*xpath2sql.DTD, *xpath2sql.DB) {
	t.Helper()
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
	return d, db
}

// newServer builds a Server of cfg and shuts it down when the test ends: a
// store-backed one runs its watch hub until then.
func newServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	return s
}

// newDeptServer builds a Server over the dept example with the given config
// overrides applied after Engine/DB are filled in.
func newDeptServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	d, db := deptFixture(t)
	cfg := Config{Engine: xpath2sql.New(d), Source: FromDB(db)}
	if mutate != nil {
		mutate(&cfg)
	}
	s := newServer(t, cfg)
	return s
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	// Markup goes as it is, not as \u003c: a fragment's bytes are the body's.
	var blob bytes.Buffer
	enc := json.NewEncoder(&blob)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", &blob)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

// TestQueryHappyPath: the dept running example answers over HTTP exactly as
// the engine does in-process.
func TestQueryHappyPath(t *testing.T) {
	s := newDeptServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/query", queryRequest{Query: "dept//project"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("%v in %s", err, body)
	}
	if qr.Count != 1 || len(qr.IDs) != 1 {
		t.Fatalf("dept//project answered %+v, want exactly the one nested project", qr)
	}
	// The recursive step runs either as a fixpoint or through the interval
	// kernel; one of the two counters must show the work.
	if qr.Stats.StmtsRun == 0 || (qr.Stats.LFPIters == 0 && qr.Stats.DescScans == 0) {
		t.Fatalf("stats not populated: %+v", qr.Stats)
	}

	// Explain rides along on request.
	resp, body = postJSON(t, ts.URL+"/v1/query", queryRequest{Query: "dept//project", Explain: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qe queryResponse
	if err := json.Unmarshal(body, &qe); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(qe.Explain, "fix") && !strings.Contains(qe.Explain, "compose") &&
		!strings.Contains(qe.Explain, "descscan") {
		t.Fatalf("explain lacks plan operators:\n%s", qe.Explain)
	}
}

// TestBatchEndpoint: a /v1/batch member is the query /v1/query runs — the
// same IDs and stats — on every source and in both interval modes, and the
// batch's stats are its members' sum. Under IntervalOff no member reads the
// interval kernel: the mode reaches a batch because its members are ordinary
// Translations.
func TestBatchEndpoint(t *testing.T) {
	queries := []string{"dept//project", "dept//course", "dept//student"}
	wantCounts := []int{1, 2, 0} // one nested project, two courses, no students
	sources := map[string]func(*testing.T, *xpath2sql.DTD, *xpath2sql.DB) Source{
		"db": func(_ *testing.T, _ *xpath2sql.DTD, db *xpath2sql.DB) Source { return FromDB(db) },
		"store": func(t *testing.T, d *xpath2sql.DTD, db *xpath2sql.DB) Source {
			st, err := store.Open(store.Config{DTD: d, Seed: db, Fsync: store.FsyncNever})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st.Close() })
			return FromStore(st)
		},
		"backend": func(_ *testing.T, _ *xpath2sql.DTD, db *xpath2sql.DB) Source {
			return FromBackend(xpath2sql.NewLocalBackend(db))
		},
	}
	for name, source := range sources {
		for _, mode := range []xpath2sql.IntervalMode{xpath2sql.IntervalAuto, xpath2sql.IntervalOff} {
			t.Run(name+"/"+mode.String(), func(t *testing.T) {
				d, db := deptFixture(t)
				s := newServer(t, Config{Engine: xpath2sql.New(d, xpath2sql.WithIntervalMode(mode)), Source: source(t, d, db)})
				ts := httptest.NewServer(s.Handler())
				defer ts.Close()

				resp, body := postJSON(t, ts.URL+"/v1/batch", batchRequest{Queries: queries})
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("status %d: %s", resp.StatusCode, body)
				}
				var br batchResponse
				if err := json.Unmarshal(body, &br); err != nil {
					t.Fatal(err)
				}
				if len(br.Results) != len(queries) {
					t.Fatalf("results = %d, want %d", len(br.Results), len(queries))
				}
				var sum xpath2sql.ExecStats
				for i, q := range queries {
					got := br.Results[i]
					if got.Count != wantCounts[i] || len(got.IDs) != got.Count {
						t.Fatalf("%s: count %d, %d IDs; want %d", q, got.Count, len(got.IDs), wantCounts[i])
					}
					_, qbody := postJSON(t, ts.URL+"/v1/query", queryRequest{Query: q})
					var qr queryResponse
					if err := json.Unmarshal(qbody, &qr); err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got.IDs, qr.IDs) || got.Stats != qr.Stats {
						t.Fatalf("%s: batch member answered %v with %+v; /v1/query answered %v with %+v",
							q, got.IDs, got.Stats, qr.IDs, qr.Stats)
					}
					sum.Add(got.Stats)
				}
				if sum != br.Stats {
					t.Fatalf("batch stats %+v, want the members' sum %+v", br.Stats, sum)
				}
				if mode == xpath2sql.IntervalOff && (br.Stats.DescScans != 0 || br.Stats.LFPs == 0) {
					t.Fatalf("IntervalOff batch read desc_scans=%d, lfps=%d; want 0 and > 0", br.Stats.DescScans, br.Stats.LFPs)
				}
				if mode == xpath2sql.IntervalAuto && br.Stats.DescScans == 0 {
					t.Fatalf("IntervalAuto batch read no interval scan: %+v", br.Stats)
				}
			})
		}
	}
}

func TestTranslateEndpoint(t *testing.T) {
	s := newDeptServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/translate", translateRequest{Query: "dept//project"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var tr translateResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Strategy == "" || tr.Statements == 0 {
		t.Fatalf("translate response incomplete: %+v", tr)
	}
	if !strings.Contains(tr.SQL["db2"], "RECURSIVE") {
		t.Fatalf("db2 SQL lacks WITH RECURSIVE:\n%s", tr.SQL["db2"])
	}
	if !strings.Contains(tr.SQL["oracle"], "CONNECT BY") {
		t.Fatalf("oracle SQL lacks CONNECT BY:\n%s", tr.SQL["oracle"])
	}

	// Dialect filtering.
	_, body = postJSON(t, ts.URL+"/v1/translate", translateRequest{Query: "dept//project", Dialect: "oracle"})
	var tr2 translateResponse
	if err := json.Unmarshal(body, &tr2); err != nil {
		t.Fatal(err)
	}
	if _, ok := tr2.SQL["db2"]; ok {
		t.Fatal("dialect=oracle still returned db2 SQL")
	}
}

// TestTranslateDialectNames: /v1/translate reads "dialect" with
// xpath2sql.ParseDialect, as the CLI does: every name it accepts answers 200
// with that one rendering under its canonical key, and any other answers 400
// with ParseDialect's error.
func TestTranslateDialectNames(t *testing.T) {
	s := newDeptServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, c := range []struct{ dialect, key string }{
		{"db2", "db2"}, {"DB2", "db2"}, {"sql99", "db2"}, {"oracle", "oracle"}, {" Oracle ", "oracle"},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/translate", translateRequest{Query: "dept//project", Dialect: c.dialect})
		var tr translateResponse
		if err := json.Unmarshal(body, &tr); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || len(tr.SQL) != 1 || tr.SQL[c.key] == "" {
			t.Errorf("dialect %q: status %d, SQL for %d dialects, want %q alone: %s", c.dialect, resp.StatusCode, len(tr.SQL), c.key, body)
		}
	}
	resp, body := postJSON(t, ts.URL+"/v1/translate", translateRequest{Query: "dept//project", Dialect: "mssql"})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `unknown SQL dialect: \"mssql\"`) {
		t.Errorf("dialect mssql: status %d: %s", resp.StatusCode, body)
	}
}

// TestErrorMapping: user faults map to 4xx with a kind, never 500.
func TestErrorMapping(t *testing.T) {
	s := newDeptServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		url  string
		body string
		want int
		kind string
	}{
		{"malformed xpath", "/v1/query", `{"query": "dept///"}`, http.StatusBadRequest, "parse"},
		{"empty query", "/v1/query", `{"query": ""}`, http.StatusBadRequest, "bad_request"},
		{"malformed json", "/v1/query", `{"query": `, http.StatusBadRequest, "bad_request"},
		{"unknown field", "/v1/query", `{"qeury": "x"}`, http.StatusBadRequest, "bad_request"},
		{"batch bad query", "/v1/batch", `{"queries": ["dept//project", "///"]}`, http.StatusBadRequest, "parse"},
		{"empty batch", "/v1/batch", `{"queries": []}`, http.StatusBadRequest, "bad_request"},
		{"bad dialect", "/v1/translate", `{"query": "dept", "dialect": "mssql"}`, http.StatusBadRequest, "bad_request"},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+tc.url, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var er errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status %d, want %d (%+v)", tc.name, resp.StatusCode, tc.want, er)
		}
		if er.Kind != tc.kind {
			t.Fatalf("%s: kind %q, want %q", tc.name, er.Kind, tc.kind)
		}
	}

	// Method and route faults.
	resp, err := http.Get(ts.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/query: %d, want 405", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /nope: %d, want 404", resp.StatusCode)
	}
}

// TestLimitBreachIs422: an engine bounded at one fixpoint iteration cannot
// answer the recursive dept//project — the typed LimitError surfaces as 422,
// not 500, and the limit metric increments.
func TestLimitBreachIs422(t *testing.T) {
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
	// Pin the fixpoint path: the interval kernel answers dept//project with
	// no Φ iterations at all, so the limit under test would never trip.
	eng := xpath2sql.New(d,
		xpath2sql.WithLimits(xpath2sql.Limits{MaxLFPIters: 1}),
		xpath2sql.WithIntervalMode(xpath2sql.IntervalOff))
	s := newServer(t, Config{Engine: eng, Source: FromDB(db)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/query", queryRequest{Query: "dept//project"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", resp.StatusCode, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Kind != "limit" || !strings.Contains(er.Error, "iteration limit") {
		t.Fatalf("error = %+v", er)
	}
	if got := s.m.limitErrors.Load(); got != 1 {
		t.Fatalf("limitErrors metric = %d, want 1", got)
	}
}

// promSample matches one sample line of the Prometheus text format.
var promSample = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [-+0-9.eEInf]+$`)

// TestMetricsEndpoint: after traffic, /metrics parses line by line as text
// exposition format and carries request, cache and data-plane series.
func TestMetricsEndpoint(t *testing.T) {
	s := newDeptServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		postJSON(t, ts.URL+"/v1/query", queryRequest{Query: "dept//project"})
	}
	postJSON(t, ts.URL+"/v1/query", queryRequest{Query: "dept///"}) // a 400

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := out.String()
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promSample.MatchString(line) {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
	for _, want := range []string{
		`xpathd_requests_total{endpoint="query",code="200"} 3`,
		`xpathd_requests_total{endpoint="query",code="400"} 1`,
		`xpathd_request_seconds_count{endpoint="query"} 4`,
		"xpathd_plancache_hits_total 2", // 3 identical queries: 1 miss, 2 hits
		"xpathd_plancache_misses_total 1",
		"xpathd_exec_lfp_iterations_total",
		"xpathd_exec_tuples_total",
		"xpathd_inflight_requests 0",
		"xpathd_panics_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestPanicIsolation: a handler panic becomes a 500 and a metric; the
// process (and subsequent requests) survive.
func TestPanicIsolation(t *testing.T) {
	s := newDeptServer(t, nil)
	var boom atomic.Bool
	boom.Store(true)
	s.hookAfterAdmit = func() {
		if boom.Load() {
			panic("boom")
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/query", queryRequest{Query: "dept//project"})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", resp.StatusCode, body)
	}
	if got := s.m.panics.Load(); got != 1 {
		t.Fatalf("panics metric = %d, want 1", got)
	}

	boom.Store(false)
	resp, body = postJSON(t, ts.URL+"/v1/query", queryRequest{Query: "dept//project"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic request: status %d: %s", resp.StatusCode, body)
	}
}

// TestGracefulShutdownDrains: a request holding its execution slot when
// Shutdown begins still completes with 200; /readyz flips to 503 for the
// drain; the listener closes only after the request finishes.
func TestGracefulShutdownDrains(t *testing.T) {
	s := newDeptServer(t, func(c *Config) { c.MaxConcurrent = 2 })
	gate := make(chan struct{})
	entered := make(chan struct{}, 8)
	s.hookAfterAdmit = func() {
		entered <- struct{}{}
		<-gate
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()
	base := "http://" + l.Addr().String()

	// Readiness before drain.
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d before drain", resp.StatusCode)
	}

	// One slow request in flight.
	type result struct {
		code int
		body []byte
	}
	reqDone := make(chan result, 1)
	go func() {
		resp, err := http.Post(base+"/v1/query", "application/json",
			strings.NewReader(`{"query": "dept//project"}`))
		if err != nil {
			reqDone <- result{code: -1}
			return
		}
		defer resp.Body.Close()
		var b bytes.Buffer
		b.ReadFrom(resp.Body)
		reqDone <- result{code: resp.StatusCode, body: b.Bytes()}
	}()
	<-entered

	// Begin the drain while the request holds its slot.
	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutDone <- s.Shutdown(ctx)
	}()

	// Readiness flips during the drain (poll: Shutdown sets it at entry).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s.draining.Load() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}

	// Release the in-flight request; it must complete normally.
	close(gate)
	r := <-reqDone
	if r.code != http.StatusOK {
		t.Fatalf("in-flight request during drain: %d %s", r.code, r.body)
	}
	if err := <-shutDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Fatalf("serve returned %v", err)
	}
}

// TestConcurrentTraffic hammers all three POST endpoints at once; under
// -race this is the serving layer's concurrency soundness check, and every
// answer must match the engine's.
func TestConcurrentTraffic(t *testing.T) {
	s := newDeptServer(t, func(c *Config) { c.MaxConcurrent = 4; c.QueueDepth = 256 })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				switch (g + i) % 3 {
				case 0:
					resp, body := postJSON(t, ts.URL+"/v1/query", queryRequest{Query: "dept//project"})
					var qr queryResponse
					if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &qr) != nil || qr.Count != 1 {
						t.Errorf("query: %d %s", resp.StatusCode, body)
						return
					}
				case 1:
					resp, _ := postJSON(t, ts.URL+"/v1/batch", batchRequest{Queries: []string{"dept//course", "dept//cno"}})
					if resp.StatusCode != http.StatusOK {
						t.Errorf("batch: %d", resp.StatusCode)
						return
					}
				case 2:
					resp, _ := postJSON(t, ts.URL+"/v1/translate", translateRequest{Query: "dept//student"})
					if resp.StatusCode != http.StatusOK {
						t.Errorf("translate: %d", resp.StatusCode)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// The scrape path under load was exercised implicitly; one final check.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics after load: %d", resp.StatusCode)
	}
	if fmt.Sprint(s.eng.CacheStats()) == "" {
		t.Fatal("unprintable cache stats")
	}
}

func TestHealthz(t *testing.T) {
	s := newDeptServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
}
