package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"xpath2sql"
	"xpath2sql/internal/backend"
	"xpath2sql/internal/ra"
	"xpath2sql/internal/server"
	"xpath2sql/internal/workload"
)

// deptElems is the size of the single-document dept databases (read-desc,
// write-mixed, watch-maintain).
func (h *harness) deptElems() int {
	if h.cfg.smoke {
		return 1500
	}
	return 35000
}

// deptData is a generated dept document in its three forms.
type deptData struct {
	dtd  *xpath2sql.DTD
	text string
	doc  *xpath2sql.Document
	db   *xpath2sql.DB
}

// buildDept generates, parses and shreds a dept document the way cmd/xpathd
// boots from -xml.
func buildDept(seed int64, elems int) (*deptData, error) {
	d, err := xpath2sql.ParseDTD(workload.DeptText)
	if err != nil {
		return nil, err
	}
	text, _, err := generateDept(d, subSeed(seed, "dept-doc"), elems)
	if err != nil {
		return nil, err
	}
	doc, err := xpath2sql.ParseXML(text)
	if err != nil {
		return nil, err
	}
	db, err := xpath2sql.Shred(doc, d)
	if err != nil {
		return nil, err
	}
	return &deptData{dtd: d, text: text, doc: doc, db: db}, nil
}

// textConstant picks the cno value the text() selection looks for. Values
// are "cno-<k>", k uniform below 1000, so at tens of thousands of elements
// every k occurs a few times.
func textConstant(seed int64) string {
	return "cno-" + strconv.Itoa(rand.New(rand.NewSource(subSeed(seed, "text-const"))).Intn(1000))
}

// readDesc is the read-desc workload: /v1/query over a static database.
type readDesc struct {
	h    *harness
	data *deptData
	eng  *xpath2sql.Engine
	svc  *service
	mix  []string
	// bodies and want are per mix slot: the request and the oracle's answer.
	bodies [][]byte
	want   []answerDigest

	loadGens []clientGen // the untraced run's client streams, kept across chunks
}

func buildReadDesc(h *harness) (instance, error) {
	data, err := buildDept(h.cfg.seed, h.deptElems())
	if err != nil {
		return nil, err
	}
	w := &readDesc{h: h, data: data, eng: engineDefaults(data.dtd), mix: readMix(textConstant(h.cfg.seed))}
	w.svc, err = startService(serverDefaults(w.eng, server.FromDB(data.db)))
	if err != nil {
		return nil, err
	}
	// Warm the plan cache: the workload measures steady-state serving.
	c := newLoadClient()
	defer c.CloseIdleConnections()
	var buf bytes.Buffer
	for _, q := range w.mix {
		body := queryBody(q, 0)
		w.bodies = append(w.bodies, body)
		status, err := post(c, w.svc.ts.URL+"/v1/query", body, &buf)
		if err != nil || status != 200 {
			w.svc.stop()
			return nil, fmt.Errorf("warm-up %q: status %d: %v", q, status, err)
		}
	}
	return w, nil
}

// oracle evaluates every query of the mix natively on the document. It is
// the harness's work, not the program's, so it runs outside set-up.
func (w *readDesc) oracle() error {
	if w.want != nil {
		return nil
	}
	for _, qs := range w.mix {
		q, err := xpath2sql.ParseQuery(qs)
		if err != nil {
			return err
		}
		w.want = append(w.want, digestIDs(oracleIDs(q, w.data.doc, 0)))
	}
	return nil
}

// mixGen cycles one client through the mix, starting at its own offset.
type mixGen struct {
	bodies [][]byte
	want   []answerDigest
	i      int
}

func (g *mixGen) next() httpOp {
	slot := g.i % len(g.bodies)
	g.i++
	return httpOp{path: "/v1/query", body: g.bodies[slot], kind: opQuery, tag: slot}
}

func (g *mixGen) ack(op httpOp, status int, body []byte) error {
	if err := checkStatus(op, status, body); err != nil {
		return err
	}
	got, err := digestResponse(body)
	if err != nil {
		return err
	}
	if got != g.want[op.tag] {
		return fmt.Errorf("%w: slot %d: got %d ids (hash %x), oracle has %d (hash %x)",
			errWrongAnswer, op.tag, got.count, got.hash, g.want[op.tag].count, g.want[op.tag].hash)
	}
	return nil
}

func (w *readDesc) gens() []clientGen {
	gens := make([]clientGen, w.h.cfg.clients)
	for i := range gens {
		gens[i] = &mixGen{bodies: w.bodies, want: w.want, i: i * 4}
	}
	return gens
}

func (w *readDesc) load(d, warm time.Duration) (*loadResult, error) {
	if err := w.oracle(); err != nil {
		return nil, err
	}
	if w.loadGens == nil {
		w.loadGens = w.gens()
	}
	return runHTTPLoad(w.svc.ts.URL, w.loadGens, warm, d)
}

// verify has nothing to add: every timed response was checked against the
// oracle as it arrived.
func (w *readDesc) verify() (int, int, error) { return 0, 0, nil }

func (w *readDesc) trace(rec *recorder, m layerMetrics) error {
	ctx := context.Background()
	if err := w.oracle(); err != nil {
		return err
	}
	before := w.eng.CacheStats()
	if _, err := loadedCounters(m, func() (*loadResult, error) {
		return runHTTPLoad(w.svc.ts.URL, w.gens(), w.h.warmUp(), w.h.loadedPhase())
	}); err != nil {
		return err
	}
	cacheCounters(m, before, w.eng.CacheStats())
	var err error
	if m["server.rejected_share"], err = rejectedShare(w.svc.ts.URL); err != nil {
		return err
	}

	n := w.h.sampleSize(traceSample)
	client := newLoadClient()
	defer client.CloseIdleConnections()
	be := backend.NewLocalDB(w.data.db)
	defer be.Close()
	peeler := &queryPeeler{
		base: w.svc.ts.URL, client: client, handler: w.svc.srv.Handler(), eng: w.eng,
		snapshot: be.Snapshot, workers: runtime.GOMAXPROCS(0),
	}
	queries := make([]string, n)
	bodies := make([][]byte, n)
	for i := range queries {
		queries[i], bodies[i] = w.mix[i%len(w.mix)], w.bodies[i%len(w.mix)]
	}
	peels, err := peeler.peelAll(ctx, queries, bodies)
	if err != nil {
		return err
	}
	var progs []*ra.Program
	for i, p := range peels {
		if want := w.want[i%len(w.mix)].count; p.answers != want {
			return fmt.Errorf("%w: traced %q: %d answers, oracle has %d", errWrongAnswer, queries[i], p.answers, want)
		}
		p.lay(rec)
		prep, err := w.eng.PrepareString(ctx, queries[i])
		if err != nil {
			return err
		}
		progs = append(progs, prep.Program())
	}
	queryPeelMetrics(m, peels)
	planShape(m, progs)
	m["trace.unattributed_share"] = rec.unattributedShare(reportedSelf...)

	snap, err := be.Snapshot(ctx)
	if err != nil {
		return err
	}
	defer snap.Close()
	if err := execVariants(ctx, m, snap, progs, w.h.sampleSize(45)); err != nil {
		return err
	}
	return storageFootprint(m, w.data)
}

func (w *readDesc) close() error { return w.svc.stop() }

// storageFootprint measures what the shredded store costs beside its input:
// the Save image against the XML text, save and load time, resident heap per
// element, and — for set-up's share — the generator's and the tree
// shredder's speed.
func storageFootprint(m layerMetrics, data *deptData) error {
	if _, _, _, err := saveAndLoad(m, data.db, int64(len(data.text))); err != nil {
		return err
	}
	var genStats xpath2sql.GenStreamStats
	d, err := timed(func() (err error) {
		_, genStats, err = generateDept(data.dtd, 1, data.db.NumNodes())
		return err
	})
	if err != nil {
		return err
	}
	m["xmlgen.generate_mb_per_s"] = float64(genStats.Bytes) / 1e6 / d.Seconds()
	if d, err = timed(func() error {
		doc, err := xpath2sql.ParseXML(data.text)
		if err != nil {
			return err
		}
		_, err = xpath2sql.Shred(doc, data.dtd)
		return err
	}); err != nil {
		return err
	}
	m["shred.tree_s"] = d.Seconds()
	return nil
}

// saveAndLoad writes a database's Save image and loads it back: the image's
// size against the input's, the time each way, and the live heap the loaded
// database holds per element.
func saveAndLoad(m layerMetrics, db *xpath2sql.DB, inputBytes int64) (save, load time.Duration, loaded *xpath2sql.DB, err error) {
	var img bytes.Buffer
	if save, err = timed(func() error { return xpath2sql.SaveDB(db, &img) }); err != nil {
		return
	}
	m["rdb.save_s"] = save.Seconds()
	m["rdb.save_bytes_per_input_byte"] = float64(img.Len()) / float64(inputBytes)
	heap0 := liveHeap()
	if load, err = timed(func() (err error) { loaded, err = xpath2sql.LoadDB(bytes.NewReader(img.Bytes())); return err }); err != nil {
		return
	}
	m["rdb.load_s"] = load.Seconds()
	if heap1 := liveHeap(); heap1 > heap0 {
		m["rdb.heap_bytes_per_element"] = float64(heap1-heap0) / float64(loaded.NumNodes())
	}
	runtime.KeepAlive(&img) // in both heap readings, so that it cancels out
	if loaded.NumNodes() != db.NumNodes() {
		err = fmt.Errorf("%w: loaded image has %d nodes, saved %d", errWrongAnswer, loaded.NumNodes(), db.NumNodes())
	}
	return
}

// liveHeap is the heap in use after two full collections: a sync.Pool's
// contents survive the first in its victim cache.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
