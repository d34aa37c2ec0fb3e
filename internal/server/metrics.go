package server

import (
	"sync"
	"sync/atomic"
	"time"

	"xpath2sql"
	"xpath2sql/internal/obs"
)

// metrics is the server's counter set: lock-free on the request path
// (atomics and pre-built histograms; the per-(endpoint, code) map is a
// copy-on-write snapshot that takes a mutex only the first time a pair is
// seen), assembled into an obs.MetricsSnapshot per /metrics scrape.
type metrics struct {
	start time.Time

	// requests holds an immutable map snapshot; observe reads it with one
	// atomic load. A miss (first request for an (endpoint, code) pair)
	// clones the map under mu and publishes the extended copy, so the
	// steady state — every pair already present — never locks.
	requests atomic.Pointer[map[reqKey]*atomic.Int64]
	mu       sync.Mutex                // serializes requests-map cloning
	latency  map[string]*obs.Histogram // per endpoint, created eagerly, read-only after newMetrics

	inFlight    atomic.Int64
	rejections  atomic.Int64
	limitErrors atomic.Int64
	panics      atomic.Int64

	// Data-plane work summed over every served execution.
	stmtsRun  atomic.Int64
	joins     atomic.Int64
	unions    atomic.Int64
	lfps      atomic.Int64
	lfpIters  atomic.Int64
	recFixes  atomic.Int64
	tuplesOut atomic.Int64
}

type reqKey struct {
	endpoint string
	code     int
}

func newMetrics(endpoints []string) *metrics {
	m := &metrics{
		start:   time.Now(),
		latency: make(map[string]*obs.Histogram, len(endpoints)),
	}
	empty := map[reqKey]*atomic.Int64{}
	m.requests.Store(&empty)
	for _, ep := range endpoints {
		m.latency[ep] = obs.NewHistogram(nil)
	}
	return m
}

// observe records one finished request. The warm path — the (endpoint,
// code) pair has been seen before — is lock-free and allocation-free: one
// atomic map load, one counter add, one histogram observe.
func (m *metrics) observe(endpoint string, code int, d time.Duration) {
	k := reqKey{endpoint, code}
	if c := (*m.requests.Load())[k]; c != nil {
		c.Add(1)
	} else {
		m.counter(k).Add(1)
	}
	if h := m.latency[endpoint]; h != nil {
		h.Observe(d)
	}
}

// counter publishes a counter for a first-seen (endpoint, code) pair by
// cloning the snapshot under the mutex — the only locking observe ever does.
func (m *metrics) counter(k reqKey) *atomic.Int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := *m.requests.Load()
	if c := cur[k]; c != nil { // lost the race to another first observer
		return c
	}
	next := make(map[reqKey]*atomic.Int64, len(cur)+1)
	for kk, vv := range cur {
		next[kk] = vv
	}
	c := new(atomic.Int64)
	next[k] = c
	m.requests.Store(&next)
	return c
}

// recordExec accumulates one execution's data-plane statistics.
func (m *metrics) recordExec(st xpath2sql.ExecStats) {
	m.stmtsRun.Add(int64(st.StmtsRun))
	m.joins.Add(int64(st.Joins))
	m.unions.Add(int64(st.Unions))
	m.lfps.Add(int64(st.LFPs))
	m.lfpIters.Add(int64(st.LFPIters))
	m.recFixes.Add(int64(st.RecFixes))
	m.tuplesOut.Add(int64(st.TuplesOut))
}

// snapshot assembles the full MetricsSnapshot: server counters plus the
// engine's aggregate stats (Engine.Stats) and the admission controller's
// live gauges.
func (m *metrics) snapshot(service string, eng obs.EngineStats, adm *admission) *obs.MetricsSnapshot {
	s := &obs.MetricsSnapshot{
		Service:     service,
		Uptime:      time.Since(m.start),
		InFlight:    m.inFlight.Load(),
		Rejections:  m.rejections.Load(),
		LimitErrors: m.limitErrors.Load(),
		Panics:      m.panics.Load(),
		Engine:      eng,
		StmtsRun:    m.stmtsRun.Load(),
		Exec: obs.OpStats{
			Joins:     int(m.joins.Load()),
			Unions:    int(m.unions.Load()),
			LFPs:      int(m.lfps.Load()),
			LFPIters:  int(m.lfpIters.Load()),
			RecFixes:  int(m.recFixes.Load()),
			TuplesOut: int(m.tuplesOut.Load()),
		},
	}
	if adm != nil {
		s.Queued = int64(adm.queued())
	}
	for k, c := range *m.requests.Load() {
		s.Requests = append(s.Requests, obs.RequestCount{Endpoint: k.endpoint, Code: k.code, Count: c.Load()})
	}
	for ep, h := range m.latency {
		s.Latency = append(s.Latency, obs.EndpointLatency{Endpoint: ep, Hist: h.Snapshot()})
	}
	return s
}
