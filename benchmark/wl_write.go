package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"xpath2sql"
	"xpath2sql/internal/backend"
	"xpath2sql/internal/server"
	"xpath2sql/internal/store"
	"xpath2sql/internal/xmltree"
)

// writeMixed is the write-mixed workload: reads and updates through a
// durable live store, at cmd/xpathd's defaults (WAL, fsync every 50 ms,
// checkpoint every 1000 updates).
type writeMixed struct {
	h    *harness
	data *deptData
	dir  string
	st   *store.Store
	eng  *xpath2sql.Engine
	svc  *service

	bodies   [][]byte    // per read query
	leaves   []int       // cno leaves of the initial document: text-update targets
	loadGens []clientGen // the untraced run's client streams, kept across chunks

	// ledger is what the clients were told: every acknowledged insert that
	// no acknowledged delete removed must be in the final document.
	mu       sync.Mutex
	inserted map[int]bool

	verified               bool
	checked, wrong         int
	replayS                float64
	replayed, checkpointsN float64
}

// replayTail is how many log records the restart check leaves for recovery
// to replay.
const replayTail = 32

func storeConfig(d *xpath2sql.DTD, seed *xpath2sql.DB, dir string) store.Config {
	return store.Config{
		DTD: d, Seed: seed, Dir: dir,
		Fsync: store.FsyncInterval, FsyncInterval: 50 * time.Millisecond,
		CheckpointEvery: 1000,
	}
}

func buildWriteMixed(h *harness) (instance, error) {
	data, err := buildDept(h.cfg.seed, h.deptElems())
	if err != nil {
		return nil, err
	}
	w := &writeMixed{h: h, data: data, eng: engineDefaults(data.dtd), inserted: map[int]bool{}}
	if w.dir, err = h.tempDir("wal"); err != nil {
		return nil, err
	}
	if w.st, err = store.Open(storeConfig(data.dtd, data.db, w.dir)); err != nil {
		return nil, err
	}
	if w.svc, err = startService(serverDefaults(w.eng, server.FromStore(w.st))); err != nil {
		w.st.Close()
		return nil, err
	}
	c := newLoadClient()
	defer c.CloseIdleConnections()
	var buf bytes.Buffer
	for _, q := range writeMixQueries {
		body := queryBody(q, 0)
		w.bodies = append(w.bodies, body)
		if status, err := post(c, w.svc.ts.URL+"/v1/query", body, &buf); err != nil || status != 200 {
			w.close()
			return nil, fmt.Errorf("warm-up %q: status %d: %v", q, status, err)
		}
	}
	for _, n := range data.doc.Nodes() {
		if n.Label == "cno" {
			w.leaves = append(w.leaves, int(n.ID))
		}
	}
	return w, nil
}

// updateBody renders a /v1/update request.
func updateBody(u updateOp) []byte {
	switch u.kind {
	case updInsert:
		return []byte(`{"op":"insert_subtree","parent":` + strconv.Itoa(u.parent) + `,"fragment":` + strconv.Quote(u.fragment) + `}`)
	case updDelete:
		return []byte(`{"op":"delete_subtree","node":` + strconv.Itoa(u.node) + `}`)
	default:
		return []byte(`{"op":"update_text","node":` + strconv.Itoa(u.node) + `,"value":` + strconv.Quote(u.value) + `}`)
	}
}

// updateAnswer is the part of /v1/update's answer the checks read.
type updateAnswer struct {
	NodeID int    `json:"node_id"`
	Nodes  int    `json:"nodes"`
	Epoch  uint64 `json:"epoch"`
	LSN    uint64 `json:"lsn"`
}

// mixedGen is one client's 80/20 stream. Reads and updates are drawn from
// one seeded generator, not issued by a dedicated writer, so writes per read
// stay fixed however fast either path is.
type mixedGen struct {
	w         *writeMixed
	r         *rand.Rand
	upd       *updateGen
	pending   updateOp
	lastEpoch uint64
}

func (g *mixedGen) next() httpOp {
	if g.r.Intn(5) < 4 {
		slot := g.r.Intn(len(g.w.bodies))
		return httpOp{path: "/v1/query", body: g.w.bodies[slot], kind: opQuery, tag: slot}
	}
	g.pending = g.upd.next()
	return httpOp{path: "/v1/update", body: updateBody(g.pending), kind: opUpdate}
}

func (g *mixedGen) ack(op httpOp, status int, body []byte) error {
	if err := checkStatus(op, status, body); err != nil {
		return err
	}
	if op.kind == opQuery {
		// The document changes under the reads, so an answer is checked
		// for shape here and for content once the run is quiet.
		_, err := digestResponse(body)
		return err
	}
	var ans updateAnswer
	if err := json.Unmarshal(body, &ans); err != nil {
		return fmt.Errorf("%w: update answer: %v", errWrongAnswer, err)
	}
	if ans.Epoch <= g.lastEpoch {
		return fmt.Errorf("%w: update acknowledged at epoch %d after epoch %d", errWrongAnswer, ans.Epoch, g.lastEpoch)
	}
	g.lastEpoch = ans.Epoch
	switch g.pending.kind {
	case updInsert:
		if ans.Nodes != courseFragmentElems {
			return fmt.Errorf("%w: insert stored %d nodes, fragment has %d", errWrongAnswer, ans.Nodes, courseFragmentElems)
		}
		g.upd.inserted(ans.NodeID)
		g.w.mu.Lock()
		g.w.inserted[ans.NodeID] = true
		g.w.mu.Unlock()
	case updDelete:
		g.w.mu.Lock()
		delete(g.w.inserted, g.pending.node)
		g.w.mu.Unlock()
	}
	return nil
}

func (w *writeMixed) gens(phase string) []clientGen {
	n := w.h.cfg.clients
	gens := make([]clientGen, n)
	for i := range gens {
		var mine []int
		for j := i; j < len(w.leaves); j += n {
			mine = append(mine, w.leaves[j])
		}
		tag := phase + "-client-" + strconv.Itoa(i)
		gens[i] = &mixedGen{
			w:   w,
			r:   rand.New(rand.NewSource(subSeed(w.h.cfg.seed, "mix-"+tag))),
			upd: newUpdateGen(subSeed(w.h.cfg.seed, "updates-"+tag), phase+strconv.Itoa(i), 1, mine),
		}
	}
	return gens
}

func (w *writeMixed) load(d, warm time.Duration) (*loadResult, error) {
	if w.loadGens == nil {
		w.loadGens = w.gens("load")
	}
	return runHTTPLoad(w.svc.ts.URL, w.loadGens, warm, d)
}

// wholeDocument rebuilds the document a database holds.
func wholeDocument(db *xpath2sql.DB) (*xpath2sql.Document, error) {
	wrapped, err := xpath2sql.Reconstruct(db, []int{1})
	if err != nil {
		return nil, err
	}
	if len(wrapped.Root.Children) != 1 {
		return nil, fmt.Errorf("reconstruction has %d roots", len(wrapped.Root.Children))
	}
	root := wrapped.Root.Children[0]
	root.Parent = nil
	return xmltree.NewDocument(root), nil
}

// verify checks the quiet system three ways: the served answers against the
// native evaluator on the document rebuilt from the final epoch; the final
// epoch against what the clients were told; and — after closing the store
// and recovering from its directory alone — the recovered epoch, LSN and
// answers against the ones before the restart.
func (w *writeMixed) verify() (int, int, error) {
	if w.verified {
		return w.checked, w.wrong, nil
	}
	ctx := context.Background()
	fail := func(format string, args ...any) {
		w.wrong++
		fmt.Fprintf(diag, "benchmark: write-mixed: "+format+"\n", args...)
	}
	// Recovery replays the log through the full write path, tens of
	// milliseconds a record, so the restart below is given a tail of fixed
	// length: a checkpoint now, then replayTail more updates. Everything
	// acknowledged earlier has to come back through the snapshot, the tail
	// through the log, and store.replay_s means the same thing on every run.
	if _, err := w.st.Checkpoint(); err != nil {
		return 0, 0, err
	}
	for i := 0; i < replayTail/2; i++ {
		res, err := w.st.InsertSubtree(1, courseFragment("tail"+strconv.Itoa(i)))
		if err != nil {
			return 0, 0, err
		}
		if _, err := w.st.DeleteSubtree(res.NodeID); err != nil {
			return 0, 0, err
		}
	}
	ep := w.st.View()
	doc, err := wholeDocument(ep.DB)
	if err != nil {
		return 0, 0, err
	}
	c := newLoadClient()
	defer c.CloseIdleConnections()
	var buf bytes.Buffer
	before := make([]answerDigest, len(writeMixQueries))
	for i, qs := range writeMixQueries {
		q, err := xpath2sql.ParseQuery(qs)
		if err != nil {
			return 0, 0, err
		}
		if status, err := post(c, w.svc.ts.URL+"/v1/query", w.bodies[i], &buf); err != nil || status != 200 {
			return 0, 0, fmt.Errorf("quiet query %q: status %d: %v", qs, status, err)
		}
		if before[i], err = digestResponse(buf.Bytes()); err != nil {
			return 0, 0, err
		}
		w.checked++
		if want := len(xpath2sql.EvalXPath(q, doc)); before[i].count != want {
			fail("%q: served %d answers, the oracle has %d on the final document", qs, before[i].count, want)
		}
	}
	w.mu.Lock()
	for node := range w.inserted {
		w.checked++
		if _, ok := ep.DB.Labels[node]; !ok {
			fail("acknowledged insert %d is missing from epoch %d", node, ep.Seq)
		}
	}
	w.mu.Unlock()
	w.checkpointsN = float64(w.st.Stats().Checkpoints)

	// Restart: everything the clients were acknowledged must come back from
	// the directory alone.
	if err := w.svc.stop(); err != nil {
		return 0, 0, err
	}
	w.svc = nil
	if err := w.st.Close(); err != nil {
		return 0, 0, err
	}
	d, err := timed(func() (err error) {
		w.st, err = store.Open(storeConfig(w.data.dtd, nil, w.dir))
		return err
	})
	if err != nil {
		return 0, 0, fmt.Errorf("reopen: %w", err)
	}
	w.replayS = d.Seconds()
	w.replayed = float64(w.st.Stats().Replayed)
	re := w.st.View()
	w.checked++
	if re.Seq != ep.Seq || re.LSN != ep.LSN {
		fail("recovered epoch %d lsn %d, had epoch %d lsn %d", re.Seq, re.LSN, ep.Seq, ep.LSN)
	}
	snap := backend.AdoptDB(re.DB, re.Seq)
	for i, qs := range writeMixQueries {
		p, err := w.eng.PrepareString(ctx, qs)
		if err != nil {
			return 0, 0, err
		}
		res, err := snap.Execute(ctx, p.Program(), backend.ExecOptions{Workers: 1})
		if err != nil {
			return 0, 0, err
		}
		w.checked++
		if got := digestIDs(res.IDs); got != before[i] {
			fail("%q: %d answers after recovery, %d before", qs, got.count, before[i].count)
		}
	}
	w.verified = true
	return w.checked, w.wrong, nil
}

func (w *writeMixed) close() error {
	var first error
	if w.svc != nil {
		first = w.svc.stop()
		w.svc = nil
	}
	if w.st != nil {
		if err := w.st.Close(); first == nil {
			first = err
		}
		w.st = nil
	}
	return first
}

// updatePeel is one update timed at each seam of the write path.
type updatePeel struct {
	http, handler, direct, ephemeral time.Duration
	parseFragment, rebuild           time.Duration
}

func (p updatePeel) lay(rec *recorder, root string) {
	t := rec.op(root, p.http)
	t.child(root, "server.handler", p.handler)
	t.child("server.handler", "store.update", p.direct)
	if p.parseFragment > 0 {
		t.child("store.update", "xmltree.parse_fragment", p.parseFragment)
	}
	if p.rebuild > 0 {
		t.child("store.update", "rdb.rebuild_intervals", p.rebuild)
	}
	t.child("store.update", "store.wal", p.direct-p.ephemeral)
}

func (w *writeMixed) trace(rec *recorder, m layerMetrics) error {
	ctx := context.Background()
	n := w.h.sampleSize(traceSample)
	client := newLoadClient()
	defer client.CloseIdleConnections()

	// The peels come first, on the store as set-up left it, so the counts
	// over them repeat exactly on every run of a seed; the loaded phase,
	// whose number of updates varies, follows.
	// Reads, peeled as in read-desc but pinned through the store's epoch.
	queries := make([]string, n)
	bodies := make([][]byte, n)
	for i := range queries {
		queries[i], bodies[i] = writeMixQueries[i%len(writeMixQueries)], w.bodies[i%len(writeMixQueries)]
	}
	peeler := &queryPeeler{
		base: w.svc.ts.URL, client: client, handler: w.svc.srv.Handler(), eng: w.eng,
		snapshot: func(context.Context) (backend.Snapshot, error) {
			ep := w.st.View()
			return backend.AdoptDB(ep.DB, ep.Seq), nil
		},
		workers: runtime.GOMAXPROCS(0),
	}
	peels, err := peeler.peelAll(ctx, queries, bodies)
	if err != nil {
		return err
	}
	for _, p := range peels {
		p.lay(rec)
	}
	queryPeelMetrics(m, peels)

	// An update here takes tens of milliseconds and is replayed at four
	// seams, so the update sample is a fifth of the read sample.
	// The peeled updates are a fixed set, so the log bytes they cost are an
	// exact count, the same on every run of a seed.
	stBefore := w.st.Stats()
	if err := w.traceUpdates(rec, m, client, w.h.sampleSize(traceSample/5)); err != nil {
		return err
	}
	stAfter := w.st.Stats()
	if recs := stAfter.WALRecords - stBefore.WALRecords; recs > 0 {
		m["store.wal_bytes_per_update"] = float64(stAfter.WALBytes-stBefore.WALBytes) / float64(recs)
	}
	m["trace.unattributed_share"] = rec.unattributedShare(append([]string{"store.update"}, reportedSelf...)...)

	cacheBefore := w.eng.CacheStats()
	if _, err := loadedCounters(m, func() (*loadResult, error) {
		return runHTTPLoad(w.svc.ts.URL, w.gens("traced"), w.h.warmUp(), w.h.loadedPhase())
	}); err != nil {
		return err
	}
	cacheCounters(m, cacheBefore, w.eng.CacheStats())
	m["store.apply_p50_us"] = w.st.Stats().Apply.Quantile(0.5) * 1e6
	if m["server.rejected_share"], err = rejectedShare(w.svc.ts.URL); err != nil {
		return err
	}

	ck, err := w.st.Checkpoint()
	if err != nil {
		return err
	}
	m["store.checkpoint_s"] = ck.Elapsed.Seconds()
	if _, _, err := w.verify(); err != nil {
		return err
	}
	m["store.checkpoints"] = w.checkpointsN
	m["store.replay_s"] = w.replayS
	m["store.replayed_records"] = w.replayed
	return nil
}

// traceUpdates peels n inserts, the n deletes that undo them, and n text
// updates: over the network, at the handler, at the durable store and at an
// ephemeral twin of it (the difference is the WAL's cost), then the two
// pieces of the store's own work that have public seams — parsing the
// fragment and rebuilding the interval encoding.
func (w *writeMixed) traceUpdates(rec *recorder, m layerMetrics, client *http.Client, n int) error {
	twinDB, err := xpath2sql.Shred(w.data.doc, w.data.dtd)
	if err != nil {
		return err
	}
	twin, err := store.Open(store.Config{DTD: w.data.dtd, Seed: twinDB})
	if err != nil {
		return err
	}
	defer twin.Close()
	scratch, err := xpath2sql.Shred(w.data.doc, w.data.dtd)
	if err != nil {
		return err
	}

	ins := make([]updatePeel, n)
	del := make([]updatePeel, n)
	txt := make([]updatePeel, n)
	frag := func(i int, seam string) string { return courseFragment("t" + seam + strconv.Itoa(i)) }
	leaf := func(i int) int { return w.leaves[i%len(w.leaves)] }

	var buf bytes.Buffer
	viaHTTP := func(u updateOp) (updateAnswer, time.Duration, error) {
		var ans updateAnswer
		var status int
		d, err := timed(func() (err error) {
			status, err = post(client, w.svc.ts.URL+"/v1/update", updateBody(u), &buf)
			return err
		})
		if err == nil && status != 200 {
			err = fmt.Errorf("traced update: status %d: %s", status, bytes.TrimSpace(buf.Bytes()))
		}
		if err == nil {
			err = json.Unmarshal(buf.Bytes(), &ans)
		}
		return ans, d, err
	}
	viaHandler := func(u updateOp) (updateAnswer, time.Duration, error) {
		var ans updateAnswer
		status, body, d := handlerPost(w.svc.srv.Handler(), "/v1/update", updateBody(u))
		if status != 200 {
			return ans, d, fmt.Errorf("traced update at the handler: status %d: %s", status, bytes.TrimSpace(body))
		}
		return ans, d, json.Unmarshal(body, &ans)
	}
	type seam struct {
		name  string
		apply func(u updateOp) (updateAnswer, time.Duration, error)
		into  func(p *updatePeel, d time.Duration)
	}
	direct := func(st *store.Store) func(u updateOp) (updateAnswer, time.Duration, error) {
		return func(u updateOp) (updateAnswer, time.Duration, error) {
			var res store.UpdateResult
			d, err := timed(func() (err error) {
				switch u.kind {
				case updInsert:
					res, err = st.InsertSubtree(u.parent, u.fragment)
				case updDelete:
					res, err = st.DeleteSubtree(u.node)
				default:
					res, err = st.UpdateText(u.node, u.value)
				}
				return err
			})
			return updateAnswer{NodeID: res.NodeID, Nodes: res.Nodes, Epoch: res.Epoch, LSN: res.LSN}, d, err
		}
	}
	// At each seam, operation i is an insert, the delete that undoes it and
	// a text update, so every store stays the size it started at.
	replay := func(s seam) func(i int) error {
		return func(i int) error {
			ans, d, err := s.apply(updateOp{kind: updInsert, parent: 1, fragment: frag(i, s.name)})
			if err != nil {
				return err
			}
			s.into(&ins[i], d)
			if _, d, err = s.apply(updateOp{kind: updDelete, node: ans.NodeID}); err != nil {
				return err
			}
			s.into(&del[i], d)
			if _, d, err = s.apply(updateOp{kind: updText, node: leaf(i), value: "traced-" + s.name + strconv.Itoa(i)}); err != nil {
				return err
			}
			s.into(&txt[i], d)
			return nil
		}
	}
	err = runSeams(n,
		replay(seam{"h", viaHTTP, func(p *updatePeel, d time.Duration) { p.http = d }}),
		replay(seam{"s", viaHandler, func(p *updatePeel, d time.Duration) { p.handler = d }}),
		replay(seam{"d", direct(w.st), func(p *updatePeel, d time.Duration) { p.direct = d }}),
		replay(seam{"e", direct(twin), func(p *updatePeel, d time.Duration) { p.ephemeral = d }}),
		func(i int) error {
			d, err := timed(func() error { _, err := xmltree.Parse(frag(i, "p")); return err })
			if err != nil {
				return err
			}
			ins[i].parseFragment = d
			// Every structural write relabels the whole document; the same
			// call on a private copy of the same size is that step alone.
			d, _ = timed(func() error { scratch.RebuildIntervals(); return nil })
			ins[i].rebuild, del[i].rebuild = d, d
			return nil
		})
	if err != nil {
		return err
	}

	directOf := func(p updatePeel) time.Duration { return p.direct }
	m["store.update_us.insert"] = medianUS(durations(ins, directOf))
	m["store.update_us.delete"] = medianUS(durations(del, directOf))
	m["store.update_us.text"] = medianUS(durations(txt, directOf))
	m["rdb.rebuild_intervals_us"] = medianUS(durations(ins, func(p updatePeel) time.Duration { return p.rebuild }))
	all := append(append(append([]updatePeel{}, ins...), del...), txt...)
	m["store.wal_self_us"] = medianUS(durations(all, func(p updatePeel) time.Duration { return max(0, p.direct-p.ephemeral) }))
	for i := 0; i < n; i++ {
		ins[i].lay(rec, "server.http_roundtrip.insert")
		del[i].lay(rec, "server.http_roundtrip.delete")
		txt[i].lay(rec, "server.http_roundtrip.text")
	}
	return nil
}
