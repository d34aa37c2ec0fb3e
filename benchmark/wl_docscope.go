package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"xpath2sql"
	"xpath2sql/internal/backend"
	"xpath2sql/internal/cluster"
	"xpath2sql/internal/obs"
	"xpath2sql/internal/ra"
	"xpath2sql/internal/server"
	"xpath2sql/internal/workload"
	"xpath2sql/internal/xpath"
)

const (
	docscopeDocs   = 16
	docscopeShards = 2
)

func (h *harness) docscopeElems() int {
	if h.cfg.smoke {
		return 300
	}
	return 4500
}

// docscopeRead is the docscope-read workload: document-scoped /v1/query on
// an in-process cluster.
type docscopeRead struct {
	h     *harness
	dtd   *xpath2sql.DTD
	coll  *collection
	place cluster.Placement
	cl    *cluster.Cluster
	eng   *xpath2sql.Engine
	svc   *service

	// bodies and want are indexed [document][query].
	bodies [][][]byte
	want   [][]answerDigest

	loadGens []clientGen // the untraced run's client streams, kept across chunks
}

func buildDocscopeRead(h *harness) (instance, error) {
	d, err := xpath2sql.ParseDTD(workload.DeptText)
	if err != nil {
		return nil, err
	}
	coll, err := buildCollection(d, h.cfg.seed, docscopeDocs, h.docscopeElems())
	if err != nil {
		return nil, err
	}
	w := &docscopeRead{h: h, dtd: d, coll: coll, eng: engineDefaults(d)}
	roots := make([]int, len(coll.docs))
	for i, doc := range coll.docs {
		roots[i] = doc.root
	}
	// Ordinal placement puts exactly half the documents on each shard.
	w.place = cluster.NewOrdinalPlacement(roots)
	if w.cl, err = cluster.Open(cluster.Config{DTD: d, Shards: docscopeShards, Placement: w.place}, coll.db); err != nil {
		return nil, err
	}
	if w.svc, err = startService(serverDefaults(w.eng, server.FromCluster(w.cl))); err != nil {
		w.cl.Close()
		return nil, err
	}
	c := newLoadClient()
	defer c.CloseIdleConnections()
	var buf bytes.Buffer
	for _, q := range writeMixQueries {
		if status, err := post(c, w.svc.ts.URL+"/v1/query", queryBody(q, 0), &buf); err != nil || status != 200 {
			w.close()
			return nil, fmt.Errorf("warm-up %q: status %d: %v", q, status, err)
		}
	}
	for _, doc := range coll.docs {
		var row [][]byte
		for _, q := range writeMixQueries {
			row = append(row, queryBody(q, doc.root))
		}
		w.bodies = append(w.bodies, row)
	}
	return w, nil
}

// oracle answers every (document, query) pair natively on that document
// alone, in collection IDs.
func (w *docscopeRead) oracle() error {
	if w.want != nil {
		return nil
	}
	for _, doc := range w.coll.docs {
		var row []answerDigest
		for _, qs := range writeMixQueries {
			q, err := xpath2sql.ParseQuery(qs)
			if err != nil {
				return err
			}
			row = append(row, digestIDs(oracleIDs(q, doc.doc, doc.offset)))
		}
		w.want = append(w.want, row)
	}
	return nil
}

// scopedGen draws a uniform document per request and cycles the queries.
type scopedGen struct {
	w *docscopeRead
	r *rand.Rand
	i int
}

func (g *scopedGen) next() httpOp {
	doc := g.r.Intn(len(g.w.bodies))
	q := g.i % len(writeMixQueries)
	g.i++
	return httpOp{path: "/v1/query", body: g.w.bodies[doc][q], kind: opQuery, tag: doc*len(writeMixQueries) + q}
}

func (g *scopedGen) ack(op httpOp, status int, body []byte) error {
	if err := checkStatus(op, status, body); err != nil {
		return err
	}
	got, err := digestResponse(body)
	if err != nil {
		return err
	}
	doc, q := op.tag/len(writeMixQueries), op.tag%len(writeMixQueries)
	if want := g.w.want[doc][q]; got != want {
		return fmt.Errorf("%w: document %d %q: got %d ids, the oracle has %d on that document",
			errWrongAnswer, doc, writeMixQueries[q], got.count, want.count)
	}
	return nil
}

func (w *docscopeRead) gens(phase string) []clientGen {
	gens := make([]clientGen, w.h.cfg.clients)
	for i := range gens {
		gens[i] = &scopedGen{w: w, i: i, r: rand.New(rand.NewSource(subSeed(w.h.cfg.seed, phase+"-docs-"+strconv.Itoa(i))))}
	}
	return gens
}

func (w *docscopeRead) load(d, warm time.Duration) (*loadResult, error) {
	if err := w.oracle(); err != nil {
		return nil, err
	}
	if w.loadGens == nil {
		w.loadGens = w.gens("load")
	}
	return runHTTPLoad(w.svc.ts.URL, w.loadGens, warm, d)
}

// verify requires the unscoped (scatter) answer, cut down to each
// document's ID range, to be that document's oracle answer.
func (w *docscopeRead) verify() (checked, wrong int, err error) {
	if err := w.oracle(); err != nil {
		return 0, 0, err
	}
	c := newLoadClient()
	defer c.CloseIdleConnections()
	var buf bytes.Buffer
	for qi, qs := range writeMixQueries {
		if status, err := post(c, w.svc.ts.URL+"/v1/query", queryBody(qs, 0), &buf); err != nil || status != 200 {
			return checked, wrong, fmt.Errorf("scatter %q: status %d: %v", qs, status, err)
		}
		var ans struct {
			IDs []int `json:"ids"`
		}
		if err := json.Unmarshal(buf.Bytes(), &ans); err != nil {
			return checked, wrong, err
		}
		for di, doc := range w.coll.docs {
			var inDoc []int
			for _, id := range ans.IDs {
				if id >= doc.root && id < doc.root+doc.elems {
					inDoc = append(inDoc, id)
				}
			}
			checked++
			if digestIDs(inDoc) != w.want[di][qi] {
				wrong++
				fmt.Fprintf(diag, "benchmark: scatter %q cut to document %d has %d ids, the oracle has %d\n",
					qs, di, len(inDoc), w.want[di][qi].count)
			}
		}
	}
	return checked, wrong, nil
}

func (w *docscopeRead) close() error {
	var first error
	if w.svc != nil {
		first = w.svc.stop()
		w.svc = nil
	}
	if w.cl != nil {
		if err := w.cl.Close(); first == nil {
			first = err
		}
		w.cl = nil
	}
	return first
}

// scopedPeel is one document-scoped query timed at each seam.
type scopedPeel struct {
	plain                         time.Duration
	http, handler, parse, prepare time.Duration
	execDoc, shardExec            time.Duration
	ops                           map[string]time.Duration
	stats                         xpath2sql.ExecStats
	docAnswers, shardAnswers      int
}

func (w *docscopeRead) trace(rec *recorder, m layerMetrics) error {
	ctx := context.Background()
	if err := w.oracle(); err != nil {
		return err
	}
	cacheBefore := w.eng.CacheStats()
	if _, err := loadedCounters(m, func() (*loadResult, error) {
		return runHTTPLoad(w.svc.ts.URL, w.gens("traced"), w.h.warmUp(), w.h.loadedPhase())
	}); err != nil {
		return err
	}
	cacheCounters(m, cacheBefore, w.eng.CacheStats())
	var err error
	if m["server.rejected_share"], err = rejectedShare(w.svc.ts.URL); err != nil {
		return err
	}

	// The shard databases the cluster holds, rebuilt by the same split, so a
	// shard's share of a routed query can be run on its own.
	parts, owner, err := cluster.SplitCollection(w.dtd, w.coll.db, docscopeShards, w.place)
	if err != nil {
		return err
	}

	n := w.h.sampleSize(traceSample)
	r := rand.New(rand.NewSource(subSeed(w.h.cfg.seed, "traced-sample")))
	docs := make([]int, n)
	for i := range docs {
		docs[i] = r.Intn(len(w.coll.docs))
	}
	qOf := func(i int) int { return i % len(writeMixQueries) }
	workers := runtime.GOMAXPROCS(0)
	client := newLoadClient()
	defer client.CloseIdleConnections()
	var buf bytes.Buffer
	peels := make([]scopedPeel, n)
	progs := make([]*ra.Program, n)
	for i := range progs {
		prep, err := w.eng.PrepareString(ctx, writeMixQueries[qOf(i)])
		if err != nil {
			return err
		}
		progs[i] = prep.Program()
	}
	roundTrip := func(into func(i int) *time.Duration) func(i int) error {
		return func(i int) (err error) {
			*into(i), err = timed(func() error {
				_, err := post(client, w.svc.ts.URL+"/v1/query", w.bodies[docs[i]][qOf(i)], &buf)
				return err
			})
			return err
		}
	}
	err = runSeams(n,
		roundTrip(func(i int) *time.Duration { return &peels[i].plain }),
		roundTrip(func(i int) *time.Duration { return &peels[i].http }),
		func(i int) error {
			status, _, d := handlerPost(w.svc.srv.Handler(), "/v1/query", w.bodies[docs[i]][qOf(i)])
			if status != 200 {
				return fmt.Errorf("traced scoped query at the handler: status %d", status)
			}
			peels[i].handler = d
			return nil
		},
		func(i int) (err error) {
			p := &peels[i]
			query := writeMixQueries[qOf(i)]
			if p.parse, err = timed(func() error { _, err := xpath.Parse(query); return err }); err != nil {
				return err
			}
			p.prepare, err = timed(func() error { _, err := w.eng.PrepareString(ctx, query); return err })
			return err
		},
		func(i int) (err error) {
			p := &peels[i]
			var ans *cluster.Answer
			if p.execDoc, err = timed(func() (err error) {
				ans, err = w.cl.Exec(ctx, progs[i], cluster.ExecOptions{Workers: workers, Doc: w.coll.docs[docs[i]].root})
				return err
			}); err != nil {
				return err
			}
			p.docAnswers = len(ans.IDs)
			if want := w.want[docs[i]][qOf(i)]; digestIDs(ans.IDs) != want {
				return fmt.Errorf("%w: traced scoped query on document %d: %d ids, oracle has %d", errWrongAnswer, docs[i], len(ans.IDs), want.count)
			}
			return nil
		},
		func(i int) (err error) {
			p := &peels[i]
			snap := backend.AdoptDB(parts[owner[w.coll.docs[docs[i]].root]], 0)
			tr := &obs.Trace{}
			var res *backend.Result
			if p.shardExec, err = timed(func() (err error) {
				res, err = snap.Execute(ctx, progs[i], backend.ExecOptions{Workers: workers, Trace: tr})
				return err
			}); err != nil {
				return err
			}
			p.ops, p.stats, p.shardAnswers = opKindTimes(tr), res.Stats, len(res.IDs)
			return nil
		})
	if err != nil {
		return err
	}

	// Unscoped, for the merge: the scatter against the slowest shard alone.
	var scatters, merges []time.Duration
	for i := 0; i < w.h.sampleSize(40); i++ {
		prog := progs[i%len(progs)]
		scatter, err := timed(func() error { _, err := w.cl.Exec(ctx, prog, cluster.ExecOptions{Workers: workers}); return err })
		if err != nil {
			return err
		}
		var slowest time.Duration
		for _, part := range parts {
			d, err := timed(func() error {
				_, err := backend.AdoptDB(part, 0).Execute(ctx, prog, backend.ExecOptions{Workers: workers})
				return err
			})
			if err != nil {
				return err
			}
			slowest = max(slowest, d)
		}
		scatters = append(scatters, scatter)
		merges = append(merges, max(0, scatter-slowest))
	}
	m["cluster.exec_scatter_us"] = medianUS(scatters)
	m["cluster.merge_self_us"] = medianUS(merges)

	var asQuery []queryPeel
	var inDoc, inShard float64
	for _, p := range peels {
		t := rec.op("server.http_roundtrip", p.http)
		t.child("server.http_roundtrip", "server.handler", p.handler)
		t.child("server.handler", "xpath.parse", p.parse)
		t.child("server.handler", "plancache.lookup", p.prepare-p.parse)
		t.child("server.handler", "cluster.exec_doc", p.execDoc)
		t.child("cluster.exec_doc", "cluster.shard_exec", p.shardExec)
		layOps(t, "cluster.shard_exec", p.shardExec, p.ops)
		inDoc += float64(p.docAnswers)
		inShard += float64(p.shardAnswers)
		// The read path's metrics, with the routed execution in the place
		// of the snapshot-and-execute a single store does.
		asQuery = append(asQuery, queryPeel{
			plain: p.plain, http: p.http, handler: p.handler, parse: p.parse, prepare: p.prepare,
			exec: p.shardExec, ops: p.ops, stats: p.stats, answers: p.shardAnswers,
		})
	}
	queryPeelMetrics(m, asQuery)
	pick := func(f func(scopedPeel) time.Duration) []time.Duration { return durations(peels, f) }
	m["server.handler_self_us"] = medianUS(pick(func(p scopedPeel) time.Duration { return max(0, p.handler-p.prepare-p.execDoc) }))
	m["cluster.exec_doc_us"] = medianUS(pick(func(p scopedPeel) time.Duration { return p.execDoc }))
	m["cluster.shard_exec_us"] = medianUS(pick(func(p scopedPeel) time.Duration { return p.shardExec }))
	m["cluster.route_self_us"] = medianUS(pick(func(p scopedPeel) time.Duration { return max(0, p.execDoc-p.shardExec) }))
	if inShard > 0 {
		m["cluster.doc_answer_share"] = inDoc / inShard
	}
	planShape(m, progs)
	cs := w.cl.Stats()
	m["cluster.failures"] = float64(cs.Failures)
	for _, sh := range cs.Shards {
		m["cluster.hedges"] += float64(sh.Hedges)
	}
	// cluster.exec_doc's self time is cluster.route_self_us, and the shard
	// execution's is the executor's own, as rdb.exec's is on a single store.
	m["trace.unattributed_share"] = rec.unattributedShare(append([]string{"cluster.exec_doc", "cluster.shard_exec"}, reportedSelf...)...)
	return nil
}
