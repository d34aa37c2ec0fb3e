// Package obs is the execution observability and control layer: resource
// limits with typed errors, per-statement execution traces, and an
// EXPLAIN ANALYZE-style plan renderer. The relational engine (internal/rdb)
// emits one StmtEvent per evaluated statement; the trace's totals subsume the
// engine's global counters, so per-strategy work — fixpoint iterations,
// intermediate cardinalities, statement counts (§6 of the paper) — can be
// attributed to individual statements rather than read off as one aggregate.
//
// The package sits below the engine: it imports only internal/ra (for plan
// rendering) and is imported by internal/rdb, internal/core and the facade.
package obs

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"
)

// Limits bounds the resources one execution may consume. The zero value
// imposes no bounds.
type Limits struct {
	// MaxTuples caps the total number of tuples produced across all
	// operators (the engine's TuplesOut counter). 0 means unlimited.
	MaxTuples int
	// MaxLFPIters caps the iterations of any single fixpoint operator
	// (Φ or the multi-relation RecUnion). 0 means unlimited. This is the
	// guard against non-terminating or blown-up fixpoints on recursive
	// DTDs.
	MaxLFPIters int
	// Timeout is the wall-clock budget for the whole execution, measured
	// from Run/RunCtx entry. 0 means unlimited. Independent of any
	// context deadline: exceeding Timeout yields a *LimitError, while a
	// context deadline yields context.DeadlineExceeded.
	Timeout time.Duration
}

// Unlimited reports whether no limit is configured.
func (l Limits) Unlimited() bool {
	return l.MaxTuples == 0 && l.MaxLFPIters == 0 && l.Timeout == 0
}

// ErrLimit is the sentinel all *LimitError values unwrap to, so callers can
// errors.Is(err, obs.ErrLimit) without caring which bound tripped.
var ErrLimit = errors.New("obs: resource limit exceeded")

// LimitKind names the bound a LimitError reports.
type LimitKind string

// The bounds of Limits.
const (
	LimitTuples   LimitKind = "MaxTuples"
	LimitLFPIters LimitKind = "MaxLFPIters"
	LimitTimeout  LimitKind = "Timeout"
)

// LimitError reports a resource limit exceeded during execution. It is
// matchable with errors.As, and errors.Is(err, ErrLimit) holds.
type LimitError struct {
	Kind LimitKind
	// Stmt is the statement under evaluation when the limit tripped.
	Stmt string
	// Limit is the configured bound; Actual the observed value. For
	// LimitTimeout both are nanoseconds.
	Limit  int64
	Actual int64
}

func (e *LimitError) Error() string {
	switch e.Kind {
	case LimitTimeout:
		return fmt.Sprintf("obs: wall-clock budget %v exceeded (%v elapsed, at statement %q)",
			time.Duration(e.Limit), time.Duration(e.Actual).Round(time.Microsecond), e.Stmt)
	case LimitLFPIters:
		return fmt.Sprintf("obs: fixpoint iteration limit %d exceeded at statement %q", e.Limit, e.Stmt)
	case LimitTuples:
		return fmt.Sprintf("obs: tuple limit %d exceeded (%d produced, at statement %q)", e.Limit, e.Actual, e.Stmt)
	}
	return fmt.Sprintf("obs: limit %s exceeded at statement %q", e.Kind, e.Stmt)
}

// Unwrap makes errors.Is(err, ErrLimit) hold for every LimitError.
func (e *LimitError) Unwrap() error { return ErrLimit }

// OpStats counts operator-level work, one instance per statement (exclusive:
// work done by referenced statements is attributed to those statements). The
// fields mirror the engine's global counters.
type OpStats struct {
	Joins     int // hash joins (compose/semi/anti/typefilter + fixpoint steps)
	Unions    int // two-way unions
	LFPs      int // Φ(R) operators evaluated
	LFPIters  int // fixpoint iterations (Φ and RecUnion)
	RecFixes  int // multi-relation fixpoints (SQLGen-R)
	TuplesOut int // tuples produced
	DescScans int // descendant closures answered by the interval kernel
	// Of those, the ones seeded from their outermost sources, and the
	// qualifier operators evaluated for their F column alone.
	StairScans, ExistsProbes int
}

// Add accumulates b into s.
func (s *OpStats) Add(b OpStats) {
	s.Joins += b.Joins
	s.Unions += b.Unions
	s.LFPs += b.LFPs
	s.LFPIters += b.LFPIters
	s.RecFixes += b.RecFixes
	s.TuplesOut += b.TuplesOut
	s.DescScans += b.DescScans
	s.StairScans += b.StairScans
	s.ExistsProbes += b.ExistsProbes
}

// Sub removes b from s.
func (s *OpStats) Sub(b OpStats) {
	s.Joins -= b.Joins
	s.Unions -= b.Unions
	s.LFPs -= b.LFPs
	s.LFPIters -= b.LFPIters
	s.RecFixes -= b.RecFixes
	s.TuplesOut -= b.TuplesOut
	s.DescScans -= b.DescScans
	s.StairScans -= b.StairScans
	s.ExistsProbes -= b.ExistsProbes
}

// StmtEvent is the observation of one evaluated RA statement.
type StmtEvent struct {
	// Stmt is the statement name (R_e of the program).
	Stmt string
	// Op is the root operator kind ("fix", "compose", "union", …).
	Op string
	// In is the summed cardinality of the distinct stored relations and
	// temporaries the statement's plan reads; Out the result cardinality.
	In, Out int
	// Ops is the work performed by this statement alone: evaluating a
	// referenced temporary is charged to that temporary's own event.
	Ops OpStats
	// Wall is the exclusive evaluation time (nested statement evaluation
	// excluded).
	Wall time.Duration
}

// Trace accumulates the events of one execution in completion order. It is
// not safe for concurrent use: an execution records its events from the one
// goroutine that runs its statements, at every worker count.
type Trace struct {
	Events []StmtEvent
}

// Add appends an event.
func (t *Trace) Add(ev StmtEvent) { t.Events = append(t.Events, ev) }

// Event returns the recorded event for a statement, or nil.
func (t *Trace) Event(stmt string) *StmtEvent {
	for i := range t.Events {
		if t.Events[i].Stmt == stmt {
			return &t.Events[i]
		}
	}
	return nil
}

// Totals is the aggregate roll-up of a trace; it subsumes the engine's
// global counters (rdb.Stats): StmtsRun = Stmts, and each OpStats field
// equals the corresponding global counter.
type Totals struct {
	Stmts int
	Ops   OpStats
	Wall  time.Duration
}

// Totals sums the trace's events.
func (t *Trace) Totals() Totals {
	var tot Totals
	for _, ev := range t.Events {
		tot.Stmts++
		tot.Ops.Add(ev.Ops)
		tot.Wall += ev.Wall
	}
	return tot
}

// CacheStats reports the effectiveness counters of a prepared-query plan
// cache (internal/plancache): lookup outcomes, singleflight coalescing and
// LRU eviction pressure. It travels with Answers produced through a caching
// Engine and is rendered in the Explain header.
type CacheStats struct {
	// Hits and Misses count Do lookups that found, respectively started
	// computing, a plan. Coalesced counts lookups that arrived while the
	// same key was already being computed and waited for that computation
	// instead of starting their own.
	Hits, Misses, Coalesced int64
	// Evictions counts entries dropped by the LRU bound.
	Evictions int64
	// Entries is the number of plans currently cached.
	Entries int
}

// EngineStats is the engine's one aggregate stats surface (Engine.Stats):
// the plan-cache counters plus the static execution configuration, so
// serving layers report engine state without stitching individual accessors
// together.
type EngineStats struct {
	// Cache holds the plan cache's counters (all zero when caching is
	// disabled).
	Cache CacheStats
	// Backend names the configured execution backend's kind ("rdb", "sql",
	// ...); "local" when the engine executes in-process without a configured
	// Backend.
	Backend string
}

// Lookups is the total number of cache lookups observed.
func (s CacheStats) Lookups() int64 { return s.Hits + s.Misses + s.Coalesced }

// HitRate is the fraction of lookups served without running a translation
// (hits and coalesced waits), in [0, 1]; 0 when no lookups happened.
func (s CacheStats) HitRate() float64 {
	if n := s.Lookups(); n > 0 {
		return float64(s.Hits+s.Coalesced) / float64(n)
	}
	return 0
}

// String renders the counters in the compact form used by CLI reporting and
// the Explain header.
func (s CacheStats) String() string {
	return fmt.Sprintf("cache: %d hits, %d misses, %d coalesced, %d evicted, %d entries (%.0f%% hit rate)",
		s.Hits, s.Misses, s.Coalesced, s.Evictions, s.Entries, 100*s.HitRate())
}

// Summary renders the n most expensive statements by wall time, one line
// each — the quick-look form used by the benchmark harness.
func (t *Trace) Summary(n int) string {
	if len(t.Events) == 0 {
		return "(no statements ran)"
	}
	byWall := append([]StmtEvent(nil), t.Events...)
	sort.SliceStable(byWall, func(i, j int) bool { return byWall[i].Wall > byWall[j].Wall })
	if n > 0 && len(byWall) > n {
		byWall = byWall[:n]
	}
	var b strings.Builder
	for _, ev := range byWall {
		fmt.Fprintf(&b, "%-24s %-10s in=%-8d out=%-8d tuples=%-8d iters=%-5d %v\n",
			ev.Stmt, ev.Op, ev.In, ev.Out, ev.Ops.TuplesOut, ev.Ops.LFPIters, ev.Wall.Round(time.Microsecond))
	}
	return b.String()
}
