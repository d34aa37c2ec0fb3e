package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"xpath2sql"
	"xpath2sql/internal/backend"
	"xpath2sql/internal/obs"
	"xpath2sql/internal/ra"
	"xpath2sql/internal/server"
	"xpath2sql/internal/xpath"
)

// traceSample is how many operations of each type a traced run peels.
const traceSample = 200

// sampleSize scales the traced sample down for smoke runs.
func (h *harness) sampleSize(n int) int {
	if h.cfg.smoke && n > 6 {
		return 6
	}
	return n
}

// loadedPhase is how long a traced run first drives the normal closed loop
// to read the counters that only mean something under load (cache hit share,
// refusals, GC share, tail latency).
func (h *harness) loadedPhase() time.Duration {
	if h.cfg.smoke {
		return 300 * time.Millisecond
	}
	return 2 * time.Second
}

// warmUp is the untimed lead-in of every closed loop.
func (h *harness) warmUp() time.Duration {
	if h.cfg.smoke {
		return 50 * time.Millisecond
	}
	return time.Second
}

// medianUS is the median of a set of durations in microseconds.
func medianUS(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d.Nanoseconds()) / 1e3
	}
	return median(xs)
}

// durations takes one measurement from each peel of a sample.
func durations[T any](peels []T, f func(T) time.Duration) []time.Duration {
	out := make([]time.Duration, len(peels))
	for i, p := range peels {
		out[i] = f(p)
	}
	return out
}

// timed runs fn and returns how long it took.
func timed(fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	return time.Since(t0), err
}

// serverDefaults builds the service the way cmd/xpathd does by default:
// admission and intra-query parallelism at GOMAXPROCS, a 1024-plan cache and
// no micro-batching — so reads execute instead of hitting the batcher's
// answer cache.
func serverDefaults(eng *xpath2sql.Engine, src server.Source) server.Config {
	return server.Config{
		Engine:         eng,
		Source:         src,
		MaxConcurrent:  runtime.GOMAXPROCS(0),
		RequestTimeout: 30 * time.Second,
		BatchWindow:    0,
		MaxBatch:       16,
	}
}

func engineDefaults(d *xpath2sql.DTD) *xpath2sql.Engine {
	return xpath2sql.New(d,
		xpath2sql.WithStrategy(xpath2sql.StrategyCycleEX),
		xpath2sql.WithParallelism(runtime.GOMAXPROCS(0)),
		xpath2sql.WithCacheSize(xpath2sql.DefaultCacheSize),
	)
}

// service is a server under test on a loopback listener.
type service struct {
	srv *server.Server
	ts  *httptest.Server
}

func startService(cfg server.Config) (*service, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	return &service{srv: srv, ts: httptest.NewServer(srv.Handler())}, nil
}

// stop closes the listener and its connections, then the server's own
// helpers (watch hub, batcher).
func (s *service) stop() error {
	s.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

// handlerPost calls the server's handler directly, below the network: the
// request is decoded, admitted, executed and encoded into a recorder.
func handlerPost(h http.Handler, path string, body []byte) (int, []byte, time.Duration) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	d := time.Since(t0)
	return rec.Code, rec.Body.Bytes(), d
}

// queryBody renders a /v1/query request.
func queryBody(query string, doc int) []byte {
	var b bytes.Buffer
	b.WriteString(`{"query":`)
	b.WriteString(strconv.Quote(query))
	if doc > 0 {
		b.WriteString(`,"doc":`)
		b.WriteString(strconv.Itoa(doc))
	}
	b.WriteByte('}')
	return b.Bytes()
}

// opKindTimes sums a trace's exclusive statement times by operator kind.
func opKindTimes(tr *obs.Trace) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, ev := range tr.Events {
		out[ev.Op] += ev.Wall
	}
	return out
}

// runtimeSnap is a reading of the Go runtime's own accounting.
type runtimeSnap struct {
	gcCPU, totalCPU float64
	mallocs, bytes  uint64
}

func readRuntime() runtimeSnap {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(samples)
	var s runtimeSnap
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		s.totalCPU = samples[1].Value.Float64()
	}
	if samples[2].Value.Kind() == metrics.KindUint64 {
		s.mallocs = samples[2].Value.Uint64()
	}
	if samples[3].Value.Kind() == metrics.KindUint64 {
		s.bytes = samples[3].Value.Uint64()
	}
	return s
}

// loadedCounters runs fn — a closed loop — and reports what the runtime and
// the load generator saw across it.
func loadedCounters(m layerMetrics, fn func() (*loadResult, error)) (*loadResult, error) {
	runtime.GC()
	before := readRuntime()
	lr, err := fn()
	if err != nil {
		return nil, err
	}
	if n := lr.failed(); n > 0 {
		return nil, fmt.Errorf("%d of %d operations failed under load", n, len(lr.samples))
	}
	after := readRuntime()
	ops := float64(len(lr.samples))
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		m["runtime.gc_cpu_share"] = (after.gcCPU - before.gcCPU) / cpu
	}
	if ops > 0 {
		m["runtime.alloc_bytes_per_op"] = float64(after.bytes-before.bytes) / ops
		m["runtime.allocs_per_op"] = float64(after.mallocs-before.mallocs) / ops
	}
	m["loadgen.samples"] = ops
	m["loadgen.query_p99_ms"] = percentile(lr.latenciesMS(opQuery), 0.99)
	m["loadgen.update_p99_ms"] = percentile(lr.latenciesMS(opUpdate), 0.99)
	return lr, nil
}

// cacheCounters reports the plan cache's behaviour between two readings.
func cacheCounters(m layerMetrics, before, after xpath2sql.CacheStats) {
	lookups := after.Lookups() - before.Lookups()
	if lookups > 0 {
		m["plancache.hit_share"] = float64(after.Hits-before.Hits) / float64(lookups)
	}
	m["plancache.evictions"] = float64(after.Evictions - before.Evictions)
}

// counterIn sums one counter's lines (all label sets) on a /metrics page,
// the same text an operator's Prometheus would scrape.
func counterIn(page, name string) (float64, error) {
	total, found := 0.0, false
	for _, line := range strings.Split(page, "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		v, err := strconv.ParseFloat(rest[strings.LastIndexByte(rest, ' ')+1:], 64)
		if err != nil {
			return 0, fmt.Errorf("metrics line %q: %w", line, err)
		}
		total += v
		found = true
	}
	if !found {
		return 0, fmt.Errorf("no %s on /metrics", name)
	}
	return total, nil
}

// rejectedShare is 429 answers ÷ requests, from the service's own counters.
func rejectedShare(base string) (float64, error) {
	c := newLoadClient()
	defer c.CloseIdleConnections()
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	page, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	rejected, err := counterIn(string(page), "xpathd_admission_rejected_total")
	if err != nil {
		return 0, err
	}
	requests, err := counterIn(string(page), "xpathd_requests_total")
	if err != nil || requests == 0 {
		return 0, err
	}
	return rejected / requests, nil
}

// queryPeel is one query timed at each public seam of the read path.
type queryPeel struct {
	plain                    time.Duration // the round trip again, as the untraced comparison
	http, handler            time.Duration
	parse, prepare, snapshot time.Duration
	exec                     time.Duration // at the worker count the server uses alone
	ops                      map[string]time.Duration
	stats                    xpath2sql.ExecStats
	answers                  int
}

// queryPeeler replays queries at the read path's seams: the loopback round
// trip, the handler, the engine's prepare (parse + plan-cache lookup), the
// backend's snapshot pin and the executor.
type queryPeeler struct {
	base     string
	client   *http.Client
	handler  http.Handler
	eng      *xpath2sql.Engine
	snapshot func(ctx context.Context) (backend.Snapshot, error)
	workers  int
}

// seamBlock is how many consecutive operations one seam replays before the
// next seam takes its turn.
const seamBlock = 10

// runSeams replays n operations at each seam in turn, a block at a time:
// within a block a seam runs its operations back to back, so it is timed
// warm, as it runs under load, not cooled down by the seams around it; and
// because the seams alternate every block, whatever drifts over a run — heap
// size, GC phase, a neighbour on the shared cores — falls on all of them
// alike instead of on whichever seam happened to go last. The seams also
// take turns going first: the third seam of a block was measurably slower
// than the first whichever seam it was. Each block starts from a collected
// heap, so no seam pays for the garbage of the one before; what collection
// costs under load is runtime.gc_cpu_share's to report. Seams must not
// depend on each other's results for an operation, since their order varies.
func runSeams(n int, seams ...func(i int) error) error {
	for lo, block := 0, 0; lo < n; lo, block = lo+seamBlock, block+1 {
		hi := min(lo+seamBlock, n)
		for k := range seams {
			seam := seams[(block+k)%len(seams)]
			runtime.GC()
			for i := lo; i < hi; i++ {
				if err := seam(i); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// peelAll replays the sample at the read path's seams.
func (p *queryPeeler) peelAll(ctx context.Context, queries []string, bodies [][]byte) ([]queryPeel, error) {
	peels := make([]queryPeel, len(queries))
	progs := make([]*ra.Program, len(queries))
	for i, query := range queries {
		prep, err := p.eng.PrepareString(ctx, query)
		if err != nil {
			return nil, err
		}
		progs[i] = prep.Program()
	}
	var buf bytes.Buffer
	roundTrip := func(into func(q *queryPeel) *time.Duration) func(i int) error {
		return func(i int) error {
			var status int
			d, err := timed(func() (err error) {
				status, err = post(p.client, p.base+"/v1/query", bodies[i], &buf)
				return err
			})
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("traced query %q: status %d", queries[i], status)
			}
			*into(&peels[i]) = d
			return err
		}
	}
	err := runSeams(len(queries),
		// The round trip twice: once as the plain one-client run the traced
		// pass is compared with, once as the outermost span.
		roundTrip(func(q *queryPeel) *time.Duration { return &q.plain }),
		roundTrip(func(q *queryPeel) *time.Duration { return &q.http }),
		func(i int) error {
			status, _, d := handlerPost(p.handler, "/v1/query", bodies[i])
			if status != http.StatusOK {
				return fmt.Errorf("traced query %q at the handler: status %d", queries[i], status)
			}
			peels[i].handler = d
			return nil
		},
		func(i int) (err error) {
			q := &peels[i]
			if q.parse, err = timed(func() error { _, err := xpath.Parse(queries[i]); return err }); err != nil {
				return err
			}
			q.prepare, err = timed(func() error { _, err := p.eng.PrepareString(ctx, queries[i]); return err })
			return err
		},
		func(i int) (err error) {
			q := &peels[i]
			var snap backend.Snapshot
			if q.snapshot, err = timed(func() (err error) { snap, err = p.snapshot(ctx); return err }); err != nil {
				return err
			}
			defer snap.Close()
			tr := &obs.Trace{}
			var res *backend.Result
			if q.exec, err = timed(func() (err error) {
				res, err = snap.Execute(ctx, progs[i], backend.ExecOptions{Workers: p.workers, Trace: tr})
				return err
			}); err != nil {
				return err
			}
			q.ops, q.stats, q.answers = opKindTimes(tr), res.Stats, len(res.IDs)
			return nil
		})
	return peels, err
}

// lay records the peel as one operation's span tree.
func (q queryPeel) lay(rec *recorder) {
	t := rec.op("server.http_roundtrip", q.http)
	t.child("server.http_roundtrip", "server.handler", q.handler)
	t.child("server.handler", "xpath.parse", q.parse)
	t.child("server.handler", "plancache.lookup", q.prepare-q.parse)
	t.child("server.handler", "backend.snapshot", q.snapshot)
	t.child("server.handler", "rdb.exec", q.exec)
	layOps(t, "rdb.exec", q.exec, q.ops)
}

// layOps records an execution's per-operator-kind times under its span.
// Statements that ran on different workers overlap in time, so their
// exclusive walls can add up to more than the execution took; the
// execution's wall time is then shared out in proportion.
func layOps(t *opTree, exec string, dur time.Duration, ops map[string]time.Duration) {
	var sum time.Duration
	for _, d := range ops {
		sum += d
	}
	scale := 1.0
	if sum > dur {
		scale = float64(dur) / float64(sum)
	}
	for _, k := range opKinds {
		if d := ops[k]; d > 0 {
			t.child(exec, "rdb.op."+k, time.Duration(float64(d)*scale))
		}
	}
}

// queryPeelMetrics folds a sample of peels into the read path's per-layer
// metrics.
func queryPeelMetrics(m layerMetrics, peels []queryPeel) {
	n := len(peels)
	if n == 0 {
		return
	}
	pick := func(f func(queryPeel) time.Duration) []time.Duration { return durations(peels, f) }
	m["xpath.parse_us"] = medianUS(pick(func(p queryPeel) time.Duration { return p.parse }))
	m["plancache.lookup_us"] = medianUS(pick(func(p queryPeel) time.Duration { return max(0, p.prepare-p.parse) }))
	m["backend.snapshot_us"] = medianUS(pick(func(p queryPeel) time.Duration { return p.snapshot }))
	m["rdb.exec_parallel_us"] = medianUS(pick(func(p queryPeel) time.Duration { return p.exec }))
	m["rdb.exec_self_us"] = medianUS(pick(func(p queryPeel) time.Duration {
		var ops time.Duration
		for _, d := range p.ops {
			ops += d
		}
		return max(0, p.exec-ops)
	}))
	m["server.handler_self_us"] = medianUS(pick(func(p queryPeel) time.Duration {
		return max(0, p.handler-p.prepare-p.snapshot-p.exec)
	}))
	m["server.http_transport_us"] = medianUS(pick(func(p queryPeel) time.Duration { return max(0, p.http-p.handler) }))
	m["trace.overhead_share"] = overheadShare(
		pick(func(p queryPeel) time.Duration { return p.http }),
		pick(func(p queryPeel) time.Duration { return p.plain }))
	for _, k := range opKinds {
		m["rdb.op_us."+k] = medianUS(pick(func(p queryPeel) time.Duration { return p.ops[k] }))
	}
	var tuples, answers, iters, scans, joins, stmts float64
	for _, p := range peels {
		tuples += float64(p.stats.TuplesOut)
		answers += float64(p.answers)
		iters += float64(p.stats.LFPIters)
		scans += float64(p.stats.DescScans)
		joins += float64(p.stats.Joins)
		stmts += float64(p.stats.StmtsRun)
	}
	if answers > 0 {
		m["rdb.tuples_per_answer"] = tuples / answers
	}
	m["rdb.lfp_iters_per_query"] = iters / float64(n)
	m["rdb.desc_scans_per_query"] = scans / float64(n)
	m["rdb.joins_per_query"] = joins / float64(n)
	m["rdb.stmts_run_per_query"] = stmts / float64(n)
}

// planShape reports the translated programs' size: statements and fixpoint
// operators per query.
func planShape(m layerMetrics, progs []*ra.Program) {
	if len(progs) == 0 {
		return
	}
	var stmts, lfps float64
	for _, p := range progs {
		stmts += float64(len(p.Stmts))
		c := p.Count()
		lfps += float64(c.LFP + c.RecFix)
	}
	m["core.stmts_per_query"] = stmts / float64(len(progs))
	m["core.lfp_ops_per_query"] = lfps / float64(len(progs))
}

// execVariants times the same programs serially and on the pure fixpoint
// plan (the paper's Φ-only form, interval kernel off).
func execVariants(ctx context.Context, m layerMetrics, snap backend.Snapshot, progs []*ra.Program, lfpSample int) error {
	var serial, lfp []time.Duration
	for i, p := range progs {
		d, err := timed(func() error {
			_, err := snap.Execute(ctx, p, backend.ExecOptions{Workers: 1, Trace: &obs.Trace{}})
			return err
		})
		if err != nil {
			return err
		}
		serial = append(serial, d)
		if i >= lfpSample {
			continue
		}
		d, err = timed(func() error {
			_, err := snap.Execute(ctx, p, backend.ExecOptions{Workers: 1, Trace: &obs.Trace{}, Intervals: xpath2sql.IntervalOff})
			return err
		})
		if err != nil {
			return err
		}
		lfp = append(lfp, d)
	}
	m["rdb.exec_us"] = medianUS(serial)
	m["rdb.exec_lfp_us"] = medianUS(lfp)
	return nil
}

// reportedSelf names the spans whose self time is itself a per-layer line:
// the round trip's is server.http_transport_us, the handler's
// server.handler_self_us, the executor's rdb.exec_self_us.
var reportedSelf = []string{"server.http_roundtrip", "server.handler", "rdb.exec"}

// overheadShare compares the traced pass's outermost spans with the same
// operations run plainly by one client.
func overheadShare(traced, plain []time.Duration) float64 {
	p := medianUS(plain)
	if p == 0 {
		return 0
	}
	d := (medianUS(traced) - p) / p
	if d < 0 {
		return 0
	}
	return d
}
