package rdb

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"xpath2sql/internal/obs"
	"xpath2sql/internal/ra"
)

// RunConfig is one scheduler run's settings. Workers below 1 is 1;
// Intervals and Doc are what the per-statement executors inherit as
// Exec.IntervalMode and Exec.Doc (the differential harness pins the physical
// path with IntervalOff/IntervalForce; a document scope is resolved once and
// shared by every statement's executor).
//
// Limits.Timeout and Limits.MaxLFPIters are enforced exactly as in the serial
// engine; Limits.MaxTuples is enforced per statement while it runs and against
// the cross-worker total as each statement completes. When Trace is non-nil,
// each statement's evaluator records its own events, merged deterministically
// (program order) after the run, so a parallel trace is byte-for-byte
// reproducible regardless of scheduling.
type RunConfig struct {
	Workers   int
	Limits    obs.Limits
	Trace     *obs.Trace
	Intervals IntervalMode
	Doc       int
}

// RunParallelWith evaluates the program's result with up to cfg.Workers
// concurrent statement evaluations: RunParallelRoots with the one root
// p.Result.
func RunParallelWith(ctx context.Context, db *DB, p *ra.Program, cfg RunConfig) (*Relation, *Stats, error) {
	done, stats, err := RunParallelRoots(ctx, db, p, []string{p.Result}, cfg)
	if err != nil {
		return nil, nil, err
	}
	return done[p.Result], stats, nil
}

// RunParallelRoots is the scheduler. Statements form a DAG through their temp
// references; a statement is scheduled once all statements it references have
// finished, so independent branches — the per-cycle edge relations of a
// closure seed, the per-query sections of a batch — run concurrently. Only
// statements reachable from a root are evaluated (the top-down strategy of
// §5.2), each exactly once however many roots reach it — the cross-query
// common sub-queries of a batch — and the completed relations are returned by
// statement name.
//
// Every statement runs in its own evaluator over an immutable snapshot of
// its dependencies; inside a statement, large joins and fixpoint deltas may
// additionally fan out morsel-parallel (Exec.Parallelism is set to the same
// worker count). Statistics are summed across workers. ctx.Err() is checked
// before each statement and between fixpoint iterations inside statements.
func RunParallelRoots(ctx context.Context, db *DB, p *ra.Program, roots []string, cfg RunConfig) (map[string]*Relation, *Stats, error) {
	workers, limits, trace := cfg.Workers, cfg.Limits, cfg.Trace
	if workers < 1 {
		workers = 1
	}
	var scope *docScope
	if cfg.Doc != 0 {
		var err error
		if scope, err = db.resolveScope(cfg.Doc); err != nil {
			return nil, nil, err
		}
	}
	byName := map[string]ra.Plan{}
	for _, s := range p.Stmts {
		if _, dup := byName[s.Name]; dup {
			return nil, nil, fmt.Errorf("rdb: duplicate statement %q", s.Name)
		}
		byName[s.Name] = s.Plan
	}
	for _, root := range roots {
		if _, ok := byName[root]; !ok {
			return nil, nil, fmt.Errorf("rdb: unknown result statement %q", root)
		}
	}

	// Dependencies restricted to statements reachable from some root. When
	// DescScans will take the interval kernel, the statements only their
	// fixpoint alternatives mention are not scheduled — the serial executor
	// never reaches them either. Should the kernel bail at run time (a
	// relation node the encoding cannot place), the statement's executor
	// evaluates what it then needs itself, lazily, from the full program.
	refs := ra.TempRefs
	if cfg.Intervals != IntervalOff && db.HasIntervals() && db.fingerprintMatches(p) {
		refs = ra.KernelTempRefs
	}
	deps := map[string][]string{}
	var reach func(name string) error
	visiting := map[string]int{} // 0 new, 1 visiting, 2 done
	reach = func(name string) error {
		switch visiting[name] {
		case 1:
			return fmt.Errorf("rdb: cyclic statement reference %q", name)
		case 2:
			return nil
		}
		visiting[name] = 1
		var ds []string
		for _, d := range refs(byName[name]) {
			if _, ok := byName[d]; !ok {
				return fmt.Errorf("rdb: unknown statement %q", d)
			}
			ds = append(ds, d)
			if err := reach(d); err != nil {
				return err
			}
		}
		sort.Strings(ds)
		deps[name] = ds
		visiting[name] = 2
		return nil
	}
	for _, root := range roots {
		if err := reach(root); err != nil {
			return nil, nil, err
		}
	}

	// Reverse edges and indegrees for scheduling.
	dependents := map[string][]string{}
	indeg := map[string]int{}
	for name, ds := range deps {
		indeg[name] = len(ds)
		for _, d := range ds {
			dependents[d] = append(dependents[d], name)
		}
	}

	start := time.Now()
	var deadline time.Time
	if limits.Timeout > 0 {
		deadline = start.Add(limits.Timeout)
	}
	var (
		mu      sync.Mutex
		done    = map[string]*Relation{}
		total   Stats
		traces  []*obs.Trace
		firstEr error
		closed  bool
	)
	ready := make(chan string, len(deps))
	for name, n := range indeg {
		if n == 0 {
			ready <- name
		}
	}
	var wg sync.WaitGroup
	remaining := len(deps)
	complete := func(name string, rel *Relation, st Stats, tr *obs.Trace, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil && firstEr == nil {
			firstEr = err
		}
		done[name] = rel
		total.Add(st)
		if tr != nil {
			traces = append(traces, tr)
		}
		if firstEr == nil && limits.MaxTuples > 0 && total.TuplesOut > limits.MaxTuples {
			firstEr = &obs.LimitError{
				Kind: obs.LimitTuples, Stmt: name,
				Limit: int64(limits.MaxTuples), Actual: int64(total.TuplesOut),
			}
		}
		remaining--
		if closed {
			return
		}
		if firstEr != nil || remaining == 0 {
			closed = true
			close(ready)
			return
		}
		for _, dep := range dependents[name] {
			indeg[dep]--
			if indeg[dep] == 0 {
				ready <- dep
			}
		}
	}

	work := func() {
		defer wg.Done()
		for name := range ready {
			if err := ctx.Err(); err != nil {
				complete(name, nil, Stats{}, nil, err)
				continue
			}
			// Snapshot the dependencies into a private environment.
			mu.Lock()
			env := make(map[string]*Relation, len(deps[name]))
			for _, d := range deps[name] {
				env[d] = done[d]
			}
			mu.Unlock()
			ex := NewExec(db)
			ex.Limits = limits
			ex.Parallelism = workers
			ex.IntervalMode = cfg.Intervals
			ex.scope = scope
			ex.prog = p
			ex.env = env
			ex.running = map[string]bool{}
			ex.ctx = ctx
			ex.start = start
			ex.deadline = deadline
			var tr *obs.Trace
			if trace != nil {
				tr = &obs.Trace{}
				ex.trace = tr
			}
			rel, err := ex.stmt(name)
			if err == nil {
				rel.ensureSet() // dependents probe it from other goroutines
			}
			complete(name, rel, ex.Stats, tr, err)
		}
	}
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go work()
	}
	wg.Wait()
	if trace != nil {
		order := make(map[string]int, len(p.Stmts))
		for i, s := range p.Stmts {
			order[s.Name] = i
		}
		trace.Merge(order, traces...)
	}
	if firstEr != nil {
		return nil, nil, firstEr
	}
	return done, &total, nil
}
