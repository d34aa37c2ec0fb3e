package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"xpath2sql"
	"xpath2sql/internal/core"
	"xpath2sql/internal/ra"
	"xpath2sql/internal/server"
	"xpath2sql/internal/workload"
	"xpath2sql/internal/xpath"
)

// translatePool is how many distinct queries the request stream holds. It
// only has to dwarf the 1024-entry plan cache: cycling through it still
// misses every time, because an entry is evicted long before it comes round
// again.
const translatePool = 20000

// translateChecked is how many of the pool's queries are also executed and
// compared with the oracle.
const translateChecked = 50

// translateCold is the translate-cold workload: /v1/translate where every
// request is a query the engine has not seen.
type translateCold struct {
	h    *harness
	dtd  *xpath2sql.DTD
	doc  *xpath2sql.Document
	db   *xpath2sql.DB
	eng  *xpath2sql.Engine
	svc  *service
	pool []string
	next atomic.Int64 // shared stream position: each request takes the next query
}

func buildTranslateCold(h *harness) (instance, error) {
	d := workload.GedML()
	// The database is tiny on purpose: translation never reads it, and the
	// sampled answer check needs only some nodes of every type.
	// Generation is a branching process that can die out at the root, so
	// seeds are tried in turn until the document has some size.
	var doc *xpath2sql.Document
	for try := 0; doc == nil || doc.Size() < 200; try++ {
		if try == 64 {
			return nil, fmt.Errorf("no GedML document of 200 elements in 64 seeds from %d", h.cfg.seed)
		}
		var err error
		doc, err = xpath2sql.Generate(d, xpath2sql.GenOptions{
			XL: 8, XR: 3, Seed: subSeed(h.cfg.seed, "gedml-doc-"+strconv.Itoa(try)), MaxNodes: 600,
		})
		if err != nil {
			return nil, err
		}
	}
	db, err := xpath2sql.Shred(doc, d)
	if err != nil {
		return nil, err
	}
	w := &translateCold{h: h, dtd: d, doc: doc, db: db, eng: engineDefaults(d)}
	gen := newQueryGen(d, subSeed(h.cfg.seed, "translate-queries"))
	n := translatePool
	if h.cfg.smoke {
		n = 2000
	}
	w.pool = make([]string, n)
	for i := range w.pool {
		w.pool[i] = gen.next()
	}
	w.svc, err = startService(serverDefaults(w.eng, server.FromDB(db)))
	if err != nil {
		return nil, err
	}
	return w, nil
}

// translateGen hands one client the stream's next queries.
type translateGen struct{ w *translateCold }

func translateBody(query string) []byte {
	return []byte(`{"query":` + strconv.Quote(query) + `,"dialect":"db2"}`)
}

func (g translateGen) next() httpOp {
	i := int(g.w.next.Add(1)-1) % len(g.w.pool)
	return httpOp{path: "/v1/translate", body: translateBody(g.w.pool[i]), kind: opQuery, tag: i}
}

var (
	sqlKey        = []byte(`"db2":"`)
	statementsKey = []byte(`"statements":`)
)

// ack requires SQL text and at least one statement.
func (g translateGen) ack(op httpOp, status int, body []byte) error {
	if err := checkStatus(op, status, body); err != nil {
		return err
	}
	i := bytes.Index(body, sqlKey)
	if i < 0 || i+len(sqlKey) >= len(body) || body[i+len(sqlKey)] == '"' {
		return fmt.Errorf("%w: translate answer for %q has no db2 SQL", errWrongAnswer, g.w.pool[op.tag])
	}
	j := bytes.Index(body, statementsKey)
	if j < 0 || j+len(statementsKey) >= len(body) || body[j+len(statementsKey)] == '0' {
		return fmt.Errorf("%w: translate answer for %q has no statements", errWrongAnswer, g.w.pool[op.tag])
	}
	return nil
}

func (w *translateCold) gens() []clientGen {
	gens := make([]clientGen, w.h.cfg.clients)
	for i := range gens {
		gens[i] = translateGen{w}
	}
	return gens
}

func (w *translateCold) load(d, warm time.Duration) (*loadResult, error) {
	return runHTTPLoad(w.svc.ts.URL, w.gens(), warm, d)
}

// verify executes a sample of the stream's queries through the translation
// and compares each answer with the native evaluator's.
func (w *translateCold) verify() (checked, wrong int, err error) {
	ctx := context.Background()
	be := xpath2sql.NewLocalBackend(w.db)
	defer be.Close()
	step := len(w.pool) / translateChecked
	if step == 0 {
		step = 1
	}
	nonEmpty := 0
	for i := 0; i < len(w.pool); i += step {
		q, err := xpath2sql.ParseQuery(w.pool[i])
		if err != nil {
			return checked, wrong, fmt.Errorf("generated query %q: %w", w.pool[i], err)
		}
		tr, err := w.eng.Translate(ctx, q)
		if err != nil {
			return checked, wrong, fmt.Errorf("generated query %q: %w", w.pool[i], err)
		}
		ans, err := tr.ExecuteOn(ctx, be)
		if err != nil {
			return checked, wrong, fmt.Errorf("generated query %q: %w", w.pool[i], err)
		}
		checked++
		if len(ans.IDs) > 0 {
			nonEmpty++
		}
		if digestIDs(ans.IDs) != digestIDs(oracleIDs(q, w.doc, 0)) {
			wrong++
			fmt.Fprintf(diag, "benchmark: %q: translated answer differs from the oracle's\n", w.pool[i])
		}
	}
	if nonEmpty == 0 {
		return checked, wrong, fmt.Errorf("all %d sampled queries have empty answers: the check proves nothing", checked)
	}
	return checked, wrong, nil
}

// translatePeel is one distinct query timed at each seam of the miss path.
type translatePeel struct {
	http, handler, prepare time.Duration
	parse, translate       time.Duration
	xpath2exp, exp2sql     time.Duration
	render                 time.Duration
	sqlBytes               int
	prog                   *ra.Program
}

func (w *translateCold) trace(rec *recorder, m layerMetrics) error {
	ctx := context.Background()
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

	// A seam sees a query as new only once, so the handler and the engine
	// seams get engines of their own; the running service's engine serves
	// the round trip.
	handlerEng, prepareEng := engineDefaults(w.dtd), engineDefaults(w.dtd)
	handlerSrv, err := server.New(serverDefaults(handlerEng, server.FromDB(w.db)))
	if err != nil {
		return err
	}
	defer handlerSrv.Shutdown(ctx)

	n := w.h.sampleSize(traceSample)
	client := newLoadClient()
	defer client.CloseIdleConnections()
	var buf bytes.Buffer
	// The sample is the pool's tail — the loaded phase above eats into its
	// head by an amount that varies — so the same queries are traced on
	// every run of a seed and the counts over them repeat exactly.
	opts := xpath2sql.DefaultOptions()
	queries := w.pool[len(w.pool)-n:]
	peels := make([]translatePeel, n)
	plain := make([]time.Duration, n)
	err = runSeams(n,
		// The plain one-client run the traced pass is compared with; it
		// needs queries of its own to miss the cache too.
		func(i int) (err error) {
			body := translateBody(w.pool[len(w.pool)-2*n+i])
			plain[i], err = timed(func() error { _, err := post(client, w.svc.ts.URL+"/v1/translate", body, &buf); return err })
			return err
		},
		func(i int) error {
			var status int
			d, err := timed(func() (err error) {
				status, err = post(client, w.svc.ts.URL+"/v1/translate", translateBody(queries[i]), &buf)
				return err
			})
			if err != nil {
				return err
			}
			if status != 200 {
				return fmt.Errorf("traced translate %q: status %d", queries[i], status)
			}
			var resp struct {
				SQL map[string]string `json:"sql"`
			}
			if err := json.Unmarshal(buf.Bytes(), &resp); err != nil {
				return err
			}
			peels[i].http, peels[i].sqlBytes = d, len(resp.SQL["db2"])
			return nil
		},
		func(i int) error {
			status, _, d := handlerPost(handlerSrv.Handler(), "/v1/translate", translateBody(queries[i]))
			if status != 200 {
				return fmt.Errorf("traced translate %q at the handler: status %d", queries[i], status)
			}
			peels[i].handler = d
			return nil
		},
		func(i int) (err error) {
			p := &peels[i]
			var prep *xpath2sql.Prepared
			if p.prepare, err = timed(func() (err error) { prep, err = prepareEng.PrepareString(ctx, queries[i]); return err }); err != nil {
				return err
			}
			if p.render, err = timed(func() error { _, err := prep.SQL(xpath2sql.DialectDB2); return err }); err != nil {
				return err
			}
			p.prog = prep.Program()
			return nil
		},
		func(i int) (err error) {
			p := &peels[i]
			var q xpath.Path
			if p.parse, err = timed(func() (err error) { q, err = xpath.Parse(queries[i]); return err }); err != nil {
				return err
			}
			if p.translate, err = timed(func() error { _, err := core.Translate(q, w.dtd, opts); return err }); err != nil {
				return err
			}
			var eq *xpath2sql.ExtendedQuery
			if p.xpath2exp, err = timed(func() (err error) { eq, err = core.XPathToEXp(q, w.dtd, core.RecFlat); return err }); err != nil {
				return err
			}
			p.exp2sql, err = timed(func() error { _, err := core.EXpToSQL(eq, opts.SQL); return err })
			return err
		})
	if err != nil {
		return err
	}
	for _, p := range peels {
		t := rec.op("server.http_roundtrip", p.http)
		t.child("server.http_roundtrip", "server.handler", p.handler)
		t.child("server.handler", "xpath.parse", p.parse)
		t.child("server.handler", "plancache.lookup", p.prepare-p.parse-p.translate)
		t.child("server.handler", "core.translate", p.translate)
		t.child("core.translate", "core.xpath2exp", p.xpath2exp)
		t.child("core.translate", "core.exp2sql", p.exp2sql)
		t.child("server.handler", "ra.render_sql", p.render)
	}

	pick := func(f func(translatePeel) time.Duration) []time.Duration { return durations(peels, f) }
	m["xpath.parse_us"] = medianUS(pick(func(p translatePeel) time.Duration { return p.parse }))
	m["core.translate_us"] = medianUS(pick(func(p translatePeel) time.Duration { return p.translate }))
	m["core.xpath2exp_us"] = medianUS(pick(func(p translatePeel) time.Duration { return p.xpath2exp }))
	m["core.exp2sql_us"] = medianUS(pick(func(p translatePeel) time.Duration { return p.exp2sql }))
	m["ra.render_sql_us"] = medianUS(pick(func(p translatePeel) time.Duration { return p.render }))
	m["plancache.lookup_us"] = medianUS(pick(func(p translatePeel) time.Duration {
		return max(0, p.prepare-p.parse-p.translate)
	}))
	m["server.handler_self_us"] = medianUS(pick(func(p translatePeel) time.Duration {
		return max(0, p.handler-p.prepare-p.render)
	}))
	m["server.http_transport_us"] = medianUS(pick(func(p translatePeel) time.Duration { return max(0, p.http-p.handler) }))
	var sqlBytes float64
	var progs []*ra.Program
	var outer []time.Duration
	for _, p := range peels {
		sqlBytes += float64(p.sqlBytes)
		progs = append(progs, p.prog)
		outer = append(outer, p.http)
	}
	m["ra.sql_bytes_per_query"] = sqlBytes / float64(len(peels))
	planShape(m, progs)
	m["trace.overhead_share"] = overheadShare(outer, plain)
	// core.translate's own time — between and around its two passes — has
	// no line of its own, so it counts as unattributed.
	m["trace.unattributed_share"] = rec.unattributedShare(reportedSelf...)
	return nil
}

func (w *translateCold) close() error { return w.svc.stop() }
