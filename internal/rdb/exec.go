package rdb

import (
	"context"
	"fmt"
	"sort"
	"time"

	"xpath2sql/internal/obs"
	"xpath2sql/internal/ra"
)

// Stats records the work an execution performed; the benchmark harness
// reports these alongside wall-clock time.
type Stats struct {
	Joins     int // hash joins performed (compose/semi/anti + fixpoint steps)
	Unions    int // two-way unions performed
	LFPs      int // Φ(R) operators evaluated
	LFPIters  int // total fixpoint iterations across all Φ and RecUnion
	RecFixes  int // multi-relation fixpoints evaluated (SQLGen-R)
	TuplesOut int // tuples produced across all operators
	StmtsRun  int // statements actually evaluated (lazy evaluation skips some)
	Morsels   int // morsels scanned by intra-operator parallel sections
	DescScans int // descendant closures answered by the interval kernel
}

// Ops converts the counters to the per-statement shape of the obs layer.
func (s Stats) Ops() obs.OpStats {
	return obs.OpStats{
		Joins:     s.Joins,
		Unions:    s.Unions,
		LFPs:      s.LFPs,
		LFPIters:  s.LFPIters,
		RecFixes:  s.RecFixes,
		TuplesOut: s.TuplesOut,
		Morsels:   s.Morsels,
		DescScans: s.DescScans,
	}
}

// Minus returns the fieldwise difference a - b: the work performed between
// two snapshots of an executor's counters.
func (a Stats) Minus(b Stats) Stats {
	return Stats{
		Joins:     a.Joins - b.Joins,
		Unions:    a.Unions - b.Unions,
		LFPs:      a.LFPs - b.LFPs,
		LFPIters:  a.LFPIters - b.LFPIters,
		RecFixes:  a.RecFixes - b.RecFixes,
		TuplesOut: a.TuplesOut - b.TuplesOut,
		StmtsRun:  a.StmtsRun - b.StmtsRun,
		Morsels:   a.Morsels - b.Morsels,
		DescScans: a.DescScans - b.DescScans,
	}
}

// Exec evaluates programs against a database.
type Exec struct {
	DB    *DB
	Stats Stats

	// Lazy enables the top-down evaluation strategy of §5.2: a statement is
	// computed only when referenced. Disabled, statements run in order.
	Lazy bool

	// Parallelism is the number of worker goroutines morsel-driven operators
	// (hash joins, fixpoint delta expansion) may fan out to. Values below 2
	// keep every operator single-threaded. Results are identical at any
	// setting: morsel buffers are merged deterministically.
	Parallelism int

	// Limits bounds the resources the next Run/RunCtx may consume;
	// exceeding one returns a *obs.LimitError. The zero value is unlimited.
	Limits obs.Limits

	// IntervalMode selects how DescScan operators execute: IntervalAuto
	// (zero value) takes the interval-containment kernel whenever the
	// database holds a valid document-order encoding stamped with the
	// program's DTD fingerprint, falling back to the operator's fixpoint
	// alternative otherwise; IntervalOff always evaluates the alternative
	// (and disables Fix.Desc containment pruning); IntervalForce errors
	// when the kernel is unusable — the differential harness uses it to
	// prove the fast path ran.
	IntervalMode IntervalMode

	// Doc, when non-zero, scopes the next Run/RunCtx to one document: the
	// node ID of its root. The executor then sees exactly the document's
	// sub-database (see scope.go); a node that is not a document root returns
	// ErrNotDocumentRoot, a database without a valid interval encoding
	// ErrScopeNeedsIntervals. Runs sharing an environment (RunMore) must
	// share the scope.
	Doc int

	prog    *ra.Program
	env     map[string]*Relation
	ident   *Relation // cached R_id (unscoped runs)
	running map[string]bool
	scope   *docScope   // resolved from Doc per run; nil = whole database
	views   []*Relation // the run's scoped views of stored relations
	docID   *Relation   // the run's R_id under a scope
	arena   *ExecState  // non-nil for pooled executors (AcquireState)

	// Cancellation, limit and trace state (RunCtx).
	ctx      context.Context
	trace    *obs.Trace
	start    time.Time
	deadline time.Time // from Limits.Timeout; zero = unbounded
	cur      []string  // stack of statement names under evaluation
	frames   []execFrame
}

// execFrame tracks one in-flight statement so per-statement trace events
// report exclusive work: a nested statement's (inclusive) cost is charged to
// that statement and subtracted from its parent.
type execFrame struct {
	snap      Stats // executor stats at statement entry
	child     Stats // inclusive work of nested statements
	childWall time.Duration
	began     time.Time
}

// NewExec returns an executor with lazy (top-down) evaluation enabled and
// single-threaded operators.
func NewExec(db *DB) *Exec {
	return &Exec{DB: db, Lazy: true, Parallelism: 1}
}

// newRel returns an empty temporary sharing the database interner, so every
// relation an execution touches moves V symbols without string traffic.
// Pooled executors draw temporaries from their arena instead of the heap.
func (e *Exec) newRel(name string) *Relation {
	if e.arena != nil {
		return e.arena.alloc(name)
	}
	return newRelation(name, e.DB.Syms)
}

// prepare arms the cancellation/limit/trace state for one run and resolves
// its document scope.
func (e *Exec) prepare(ctx context.Context, trace *obs.Trace) error {
	e.scope, e.views, e.docID = nil, e.views[:0], nil
	if e.Doc != 0 {
		sc, err := e.DB.resolveScope(e.Doc)
		if err != nil {
			return err
		}
		e.scope = sc
	}
	e.ctx = ctx
	e.trace = trace
	e.start = time.Now()
	e.deadline = time.Time{}
	if e.Limits.Timeout > 0 {
		e.deadline = e.start.Add(e.Limits.Timeout)
	}
	e.cur = e.cur[:0]
	e.frames = e.frames[:0]
	return nil
}

// RunMore evaluates a program against the executor's existing memoized
// environment: statements computed by earlier Run/RunMore calls (by name)
// are reused, the execution side of multi-query optimization. The caller
// must ensure statement names agree across calls.
func (e *Exec) RunMore(p *ra.Program) (*Relation, error) {
	return e.RunMoreCtx(context.Background(), p, nil)
}

// RunMoreCtx is RunMore with cancellation, limits and tracing; see RunCtx.
// The wall-clock budget of Limits.Timeout restarts at each call.
func (e *Exec) RunMoreCtx(ctx context.Context, p *ra.Program, trace *obs.Trace) (*Relation, error) {
	e.prog = p
	if e.env == nil {
		e.env = map[string]*Relation{}
		e.running = map[string]bool{}
	}
	if err := e.prepare(ctx, trace); err != nil {
		return nil, err
	}
	return e.stmt(p.Result)
}

// Run executes the program and returns its result relation.
func (e *Exec) Run(p *ra.Program) (*Relation, error) {
	return e.RunCtx(context.Background(), p, nil)
}

// RunCtx executes the program under a context: ctx.Err() is checked between
// statements, between fixpoint iterations and per morsel inside parallel
// operators, so a cancelled or expired context makes the run return promptly
// with context.Canceled or context.DeadlineExceeded. The executor's Limits
// are enforced at the same points, returning typed *obs.LimitError values.
// When trace is non-nil, one obs.StmtEvent is recorded per evaluated
// statement with its exclusive operator counts, cardinalities and wall time;
// the trace totals then agree with e.Stats.
func (e *Exec) RunCtx(ctx context.Context, p *ra.Program, trace *obs.Trace) (*Relation, error) {
	e.prog = p
	if e.env == nil {
		e.env = map[string]*Relation{}
		e.running = map[string]bool{}
	} else {
		clear(e.env)
		clear(e.running)
	}
	if err := e.prepare(ctx, trace); err != nil {
		return nil, err
	}
	if !e.Lazy {
		for _, s := range p.Stmts {
			if _, err := e.stmt(s.Name); err != nil {
				return nil, err
			}
		}
	}
	return e.stmt(p.Result)
}

// curStmt names the statement currently under evaluation ("" outside one).
func (e *Exec) curStmt() string {
	if len(e.cur) == 0 {
		return ""
	}
	return e.cur[len(e.cur)-1]
}

// check enforces the context and the global limits. It is called between
// statements and between fixpoint iterations — the points where execution
// can be abandoned without leaving shared state corrupted.
func (e *Exec) check() error {
	if e.ctx != nil {
		if err := e.ctx.Err(); err != nil {
			return err
		}
	}
	if !e.deadline.IsZero() {
		if now := time.Now(); now.After(e.deadline) {
			return &obs.LimitError{
				Kind: obs.LimitTimeout, Stmt: e.curStmt(),
				Limit: int64(e.Limits.Timeout), Actual: int64(now.Sub(e.start)),
			}
		}
	}
	if e.Limits.MaxTuples > 0 && e.Stats.TuplesOut > e.Limits.MaxTuples {
		return &obs.LimitError{
			Kind: obs.LimitTuples, Stmt: e.curStmt(),
			Limit: int64(e.Limits.MaxTuples), Actual: int64(e.Stats.TuplesOut),
		}
	}
	return nil
}

// stmt evaluates (or returns the memoized result of) a named statement.
func (e *Exec) stmt(name string) (*Relation, error) {
	if r, ok := e.env[name]; ok {
		return r, nil
	}
	if e.running[name] {
		return nil, fmt.Errorf("rdb: cyclic statement reference %q", name)
	}
	pl := e.prog.Lookup(name)
	if pl == nil {
		return nil, fmt.Errorf("rdb: unknown statement %q", name)
	}
	if err := e.check(); err != nil {
		return nil, err
	}
	e.running[name] = true
	e.cur = append(e.cur, name)
	if e.trace != nil {
		e.frames = append(e.frames, execFrame{snap: e.Stats, began: time.Now()})
	}
	r, err := e.eval(pl)
	if err == nil {
		e.Stats.StmtsRun++
	}
	delete(e.running, name)
	e.cur = e.cur[:len(e.cur)-1]
	if e.trace != nil {
		f := e.frames[len(e.frames)-1]
		e.frames = e.frames[:len(e.frames)-1]
		wall := time.Since(f.began)
		inclusive := e.Stats.Minus(f.snap)
		exclusive := inclusive.Minus(f.child)
		if len(e.frames) > 0 {
			parent := &e.frames[len(e.frames)-1]
			addStats(&parent.child, inclusive)
			parent.childWall += wall
		}
		if err == nil {
			e.trace.Add(obs.StmtEvent{
				Stmt: name,
				Op:   obs.OpKind(pl),
				In:   e.inputCard(pl),
				Out:  r.Len(),
				Ops:  exclusive.Ops(),
				Wall: wall - f.childWall,
			})
		}
	}
	if err != nil {
		return nil, err
	}
	// Name the result after the statement, but never rename a relation that
	// already carries one: a statement evaluating straight to a stored base
	// relation returns the DB's shared *Relation, which concurrent
	// executions read.
	if r.Name == "" {
		r.Name = name
	}
	e.env[name] = r
	return r, nil
}

// inputCard sums the cardinalities of the distinct stored relations and
// temporaries a plan reads — the "input cardinality" of its trace event.
// Temporaries are read from the memoized environment, which holds them by
// the time the statement's own event is recorded.
func (e *Exec) inputCard(pl ra.Plan) int {
	seen := map[string]bool{}
	total := 0
	base := func(rel string) {
		if !seen["b\x00"+rel] {
			seen["b\x00"+rel] = true
			if r, err := e.stored(rel); err == nil {
				total += r.Len()
			}
		}
	}
	var walk func(p ra.Plan)
	walk = func(p ra.Plan) {
		switch p := p.(type) {
		case ra.Base:
			base(p.Rel)
		case ra.Temp:
			if !seen["t\x00"+p.Name] {
				seen["t\x00"+p.Name] = true
				if r, ok := e.env[p.Name]; ok {
					total += r.Len()
				}
			}
		case ra.Ident:
			if !seen["\x00id"] {
				seen["\x00id"] = true
				if e.docID != nil {
					total += e.docID.Len()
				} else {
					total += len(e.DB.Vals) + 1
				}
			}
		case ra.RootSeed:
			if !seen["\x00root"] {
				seen["\x00root"] = true
				total++
			}
		case ra.IdentOf:
			walk(p.Child)
		case ra.Compose:
			walk(p.L)
			walk(p.R)
		case ra.UnionAll:
			for _, k := range p.Kids {
				walk(k)
			}
		case ra.Fix:
			walk(p.Seed)
			if p.Start != nil {
				walk(p.Start)
			}
			if p.End != nil {
				walk(p.End)
			}
		case ra.SelectVal:
			walk(p.Child)
		case ra.SelectRoot:
			walk(p.Child)
		case ra.Semijoin:
			walk(p.L)
			walk(p.R)
		case ra.Antijoin:
			walk(p.L)
			walk(p.R)
		case ra.Diff:
			walk(p.L)
			walk(p.R)
		case ra.TypeFilter:
			base(p.Rel)
			walk(p.Child)
		case ra.DescScan:
			base(p.From)
			base(p.To)
			walk(p.Alt)
			if p.Start != nil {
				walk(p.Start)
			}
			if p.End != nil {
				walk(p.End)
			}
		case ra.RecUnion:
			for _, t := range p.Init {
				walk(t.Plan)
			}
			for _, ed := range p.Edges {
				walk(ed.Rel)
			}
		}
	}
	walk(pl)
	return total
}

func (e *Exec) eval(pl ra.Plan) (*Relation, error) {
	switch pl := pl.(type) {
	case ra.Base:
		return e.stored(pl.Rel)
	case ra.Temp:
		return e.stmt(pl.Name)
	case ra.Ident:
		return e.identRel()
	case ra.IdentOf:
		child, err := e.eval(pl.Child)
		if err != nil {
			return nil, err
		}
		out := e.newRel("")
		seen := e.idScratch(child.distinctHint(nil))
		for i := range child.rows {
			id := child.rows[i].t
			if pl.OnF {
				id = child.rows[i].f
			}
			if _, dup := seen[id]; dup {
				continue
			}
			seen[id] = struct{}{}
			out.addRow(row{f: id, t: id, v: e.valSym(int(id))})
		}
		e.Stats.TuplesOut += out.Len()
		return out, nil
	case ra.Compose:
		l, err := e.eval(pl.L)
		if err != nil {
			return nil, err
		}
		r, err := e.eval(pl.R)
		if err != nil {
			return nil, err
		}
		return e.compose(l, r)
	case ra.UnionAll:
		out := e.newRel("")
		for i, k := range pl.Kids {
			kr, err := e.eval(k)
			if err != nil {
				return nil, err
			}
			if i > 0 {
				e.Stats.Unions++
			}
			for _, w := range kr.rows {
				if out.addFrom(kr, w) {
					e.Stats.TuplesOut++
				}
			}
		}
		return out, nil
	case ra.Fix:
		return e.fix(pl)
	case ra.SelectVal:
		child, err := e.eval(pl.Child)
		if err != nil {
			return nil, err
		}
		out := e.newRel("")
		if sym, ok := child.symOf(pl.Val); ok {
			for _, w := range child.rows {
				if w.v == sym {
					out.addFrom(child, w)
				}
			}
		}
		e.Stats.TuplesOut += out.Len()
		return out, nil
	case ra.SelectRoot:
		child, err := e.eval(pl.Child)
		if err != nil {
			return nil, err
		}
		out := e.newRel("")
		for _, w := range child.rows {
			if w.f == 0 {
				out.addFrom(child, w)
			}
		}
		e.Stats.TuplesOut += out.Len()
		return out, nil
	case ra.Semijoin:
		l, err := e.eval(pl.L)
		if err != nil {
			return nil, err
		}
		r, err := e.eval(pl.R)
		if err != nil {
			return nil, err
		}
		e.Stats.Joins++
		out := e.newRel("")
		if r.Len()*8 < l.Len() {
			// Small witness side: probe L's T index with R's distinct F
			// values — O(|R| + |out|) instead of a full scan of L. This is
			// the shape merged batch programs produce (many per-query end
			// filters against one shared closure), where L's index snapshot
			// is built once and amortized across every filter probing it.
			idx := l.tIndex()
			lrows := l.probeRows()
			seen := e.idScratch(r.distinctHint(r.idxF.Load()))
			for _, w := range r.rows {
				if _, dup := seen[w.f]; dup {
					continue
				}
				seen[w.f] = struct{}{}
				snap, over := idx.lookup(w.f)
				for _, part := range [2][]int32{snap, over} {
					for _, pos := range part {
						out.addFrom(l, lrows[pos])
					}
				}
			}
			e.Stats.TuplesOut += out.Len()
			return out, nil
		}
		wit := r.fIndex()
		for _, w := range l.rows {
			if wit.contains(w.t) {
				out.addFrom(l, w)
			}
		}
		e.Stats.TuplesOut += out.Len()
		return out, nil
	case ra.Antijoin:
		l, err := e.eval(pl.L)
		if err != nil {
			return nil, err
		}
		r, err := e.eval(pl.R)
		if err != nil {
			return nil, err
		}
		e.Stats.Joins++
		wit := r.fIndex()
		out := e.newRel("")
		for _, w := range l.rows {
			if !wit.contains(w.t) {
				out.addFrom(l, w)
			}
		}
		e.Stats.TuplesOut += out.Len()
		return out, nil
	case ra.Diff:
		l, err := e.eval(pl.L)
		if err != nil {
			return nil, err
		}
		r, err := e.eval(pl.R)
		if err != nil {
			return nil, err
		}
		out := e.newRel("")
		for _, w := range l.rows {
			if !r.hasPair(packPair(w.f, w.t)) {
				out.addFrom(l, w)
			}
		}
		e.Stats.TuplesOut += out.Len()
		return out, nil
	case ra.RootSeed:
		out := e.newRel("")
		out.addRow(row{})
		return out, nil
	case ra.TypeFilter:
		child, err := e.eval(pl.Child)
		if err != nil {
			return nil, err
		}
		e.Stats.Joins++
		typed := e.DB.Rel(pl.Rel).tIndex()
		out := e.newRel("")
		for _, w := range child.rows {
			col := w.t
			if pl.OnF {
				col = w.f
			}
			if typed.contains(col) {
				out.addFrom(child, w)
			}
		}
		e.Stats.TuplesOut += out.Len()
		return out, nil
	case ra.RecUnion:
		return e.recUnion(pl)
	case ra.DescScan:
		return e.descScan(pl)
	}
	return nil, fmt.Errorf("rdb: unsupported plan %T", pl)
}

// valSym returns the interned symbol of a stored node's value ("" for
// unknown nodes, e.g. the virtual root).
func (e *Exec) valSym(id int) int32 {
	v, ok := e.DB.Vals[id]
	if !ok || v == "" {
		return 0
	}
	return e.DB.Syms.Intern(v)
}

// identRel materializes R_id: (v, v, v.val) for every stored node, plus the
// virtual document root (0, 0) so that ε holds at the top-level context.
// A query answer of node 0 is filtered out at extraction time — the virtual
// root is a context, never a result.
func (e *Exec) identRel() (*Relation, error) {
	if e.scope != nil {
		if e.docID == nil {
			r, err := e.scopedIdent()
			if err != nil {
				return nil, err
			}
			e.docID = r
		}
		return e.docID, nil
	}
	if e.ident == nil {
		// Allocated off-arena: pooled executors retain R_id across requests
		// against the same DB (AcquireState drops it on a rebind).
		r := newRelation("Rid", e.DB.Syms)
		r.grow(len(e.DB.Vals) + 1)
		r.addRow(row{})
		for id, v := range e.DB.Vals {
			var sym int32
			if v != "" {
				sym = e.DB.Syms.Intern(v)
			}
			r.addRow(row{f: int32(id), t: int32(id), v: sym})
		}
		e.ident = r
	}
	return e.ident, nil
}

// compose performs the path join π_{l.F, r.T, r.V}(l ⋈_{l.T=r.F} r): the
// smaller side is scanned as the probe, the larger side's CSR index is the
// build side. Large probes run morsel-parallel; serial probes fold matches
// straight into the output with no candidate buffer and no closure state,
// producing the identical tuple order.
func (e *Exec) compose(l, r *Relation) (*Relation, error) {
	e.Stats.Joins++
	out := e.newRel("")
	// The probe side is scanned, the build side resolves index positions.
	probeL := l.Len() <= r.Len()
	lrows, rrows := l.probeRows(), r.rows
	if probeL {
		lrows, rrows = l.rows, r.probeRows()
	}
	n := len(rrows)
	if probeL {
		n = len(lrows)
	}
	if workers := e.parWorkers(n); workers > 1 {
		var scan func(lo, hi int, buf []cand) []cand
		if probeL {
			idx := r.fIndex()
			scan = func(lo, hi int, buf []cand) []cand {
				for i := lo; i < hi; i++ {
					lt := lrows[i]
					snap, over := idx.lookup(lt.t)
					for _, part := range [2][]int32{snap, over} {
						for _, pos := range part {
							rt := rrows[pos]
							buf = append(buf, cand{out: row{f: lt.f, t: rt.t, v: rt.v}})
						}
					}
				}
				return buf
			}
		} else {
			idx := l.tIndex()
			scan = func(lo, hi int, buf []cand) []cand {
				for i := lo; i < hi; i++ {
					rt := rrows[i]
					snap, over := idx.lookup(rt.f)
					for _, part := range [2][]int32{snap, over} {
						for _, pos := range part {
							lt := lrows[pos]
							buf = append(buf, cand{out: row{f: lt.f, t: rt.t, v: rt.v}})
						}
					}
				}
				return buf
			}
		}
		bufs, err := e.scanMorsels(n, workers, scan)
		if err != nil {
			return nil, err
		}
		for _, buf := range bufs {
			for _, c := range buf {
				if out.addRow(c.out) {
					e.Stats.TuplesOut++
				}
			}
		}
		return out, nil
	}
	if probeL {
		idx := r.fIndex()
		for i := range lrows {
			lt := lrows[i]
			snap, over := idx.lookup(lt.t)
			for _, part := range [2][]int32{snap, over} {
				for _, pos := range part {
					rt := rrows[pos]
					if out.addRow(row{f: lt.f, t: rt.t, v: rt.v}) {
						e.Stats.TuplesOut++
					}
				}
			}
		}
	} else {
		idx := l.tIndex()
		for i := range rrows {
			rt := rrows[i]
			snap, over := idx.lookup(rt.f)
			for _, part := range [2][]int32{snap, over} {
				for _, pos := range part {
					lt := lrows[pos]
					if out.addRow(row{f: lt.f, t: rt.t, v: rt.v}) {
						e.Stats.TuplesOut++
					}
				}
			}
		}
	}
	return out, nil
}

// fixDir is the iteration direction of a constrained fixpoint.
type fixDir int

const (
	fixFwd fixDir = iota // probe seed.F with delta.T; new (d.F, s.T)
	fixBwd               // probe seed.T with delta.F; new (s.F, d.T)
)

// fixExtendPath / fixPrependPath maintain the P attribute of §5.2 ("XML
// reconstruction"): the path of a new tuple concatenates the extending edge
// onto the witnessing path.
func fixExtendPath(out *Relation, baseF, baseT, newT int32) {
	prev := out.PathOf(int(baseF), int(baseT))
	path := make([]int, len(prev)+1)
	copy(path, prev)
	path[len(prev)] = int(newT)
	out.SetPath(int(baseF), int(newT), path)
}

func fixPrependPath(out *Relation, newF, baseF, baseT int32) {
	prev := out.PathOf(int(baseF), int(baseT))
	path := make([]int, 0, len(prev)+1)
	path = append(path, int(baseF))
	path = append(path, prev...)
	out.SetPath(int(newF), int(baseT), path)
}

// fix evaluates Φ(R) (Eq. 2): the transitive closure of the seed relation,
// with optional pushed start/end constraints (§5.2). Semi-naive: each
// iteration joins only the previous delta against the seed's CSR index;
// large deltas expand morsel-parallel, with the per-worker candidate buffers
// merged in morsel order so results and statistics match a serial run.
// Constraint membership probes go through the constraint relation's column
// index instead of materializing per-Φ value-set maps, and the serial path
// is free of heap-escaping closures — both for the pooled zero-allocation
// serving contract (see ExecState).
func (e *Exec) fix(pl ra.Fix) (*Relation, error) {
	seed, err := e.eval(pl.Seed)
	if err != nil {
		return nil, err
	}
	e.Stats.LFPs++
	// startIdx answers w.f ∈ π_T(Start); endIdx answers w.t ∈ π_F(End).
	var startIdx, endIdx *colIndex
	var endRel *Relation
	if pl.Start != nil {
		s, err := e.eval(pl.Start)
		if err != nil {
			return nil, err
		}
		startIdx = s.tIndex()
	}
	if pl.End != nil {
		s, err := e.eval(pl.End)
		if err != nil {
			return nil, err
		}
		endIdx = s.fIndex()
		endRel = s
	}

	// On a descendant-closure fixpoint running forward between both pushed
	// constraints, the interval encoding bounds the useful frontier: every
	// tuple produced by expanding from node t has its target inside t's
	// subtree, so when no end-constraint node lies strictly inside
	// (begin(t), end(t)) the whole expansion from t would be discarded by
	// the final end filter. prune(t) reports that, and the iteration drops
	// such tuples from the delta (they still enter the result relation —
	// t itself may satisfy the end constraint).
	var prune func(t int32) bool
	if pl.Desc && startIdx != nil && endIdx != nil && e.IntervalMode != IntervalOff {
		if st := e.DB.ivs.Load(); st != nil {
			begins := make([]int64, 0, endRel.Len())
			seen := e.idScratch(endRel.distinctHint(endRel.idxF.Load()))
			usable := true
			for _, w := range endRel.rows {
				if _, dup := seen[w.f]; dup {
					continue
				}
				seen[w.f] = struct{}{}
				iv, has := st.iv[int(w.f)]
				if !has {
					// An end node the encoding cannot place (e.g. the
					// virtual root): pruning would be unsound.
					usable = false
					break
				}
				begins = append(begins, iv.Begin)
			}
			if usable {
				sort.Slice(begins, func(i, j int) bool { return begins[i] < begins[j] })
				iv := st.iv
				prune = func(t int32) bool {
					tiv, has := iv[int(t)]
					if !has {
						return false
					}
					i := sort.Search(len(begins), func(i int) bool { return begins[i] > tiv.Begin })
					return i >= len(begins) || begins[i] >= tiv.End
				}
			}
		}
	}

	out := e.newRel("")
	track := pl.TrackPaths
	dir := fixFwd
	delta := e.getRowBuf()
	switch {
	case startIdx != nil:
		// Forward iteration from the constrained frontier:
		// C = R.F ∈ π_T(Start) ∧ R_{i-1}.T = R_0.F.
		for _, w := range seed.rows {
			if startIdx.contains(w.f) && out.addRow(w) {
				e.Stats.TuplesOut++
				if track {
					out.SetPath(int(w.f), int(w.t), []int{int(w.t)})
				}
				if prune == nil || !prune(w.t) {
					delta = append(delta, w)
				}
			}
		}
	case endIdx != nil:
		// Backward iteration: C = R.T ∈ π_F(End) ∧ R_{i-1}.F = R_0.T.
		dir = fixBwd
		for _, w := range seed.rows {
			if endIdx.contains(w.t) && out.addRow(w) {
				e.Stats.TuplesOut++
				if track {
					out.SetPath(int(w.f), int(w.t), []int{int(w.t)})
				}
				delta = append(delta, w)
			}
		}
	default:
		// Unconstrained transitive closure.
		for _, w := range seed.rows {
			if out.addRow(w) {
				e.Stats.TuplesOut++
				if track {
					out.SetPath(int(w.f), int(w.t), []int{int(w.t)})
				}
				delta = append(delta, w)
			}
		}
	}

	iters := 0
	next := e.getRowBuf()
	for len(delta) > 0 {
		// Cancellation and limit checks happen here, between iterations, so
		// an abandoned Φ leaves no shared state behind.
		iters++
		e.Stats.LFPIters++
		if e.Limits.MaxLFPIters > 0 && iters > e.Limits.MaxLFPIters {
			return nil, &obs.LimitError{
				Kind: obs.LimitLFPIters, Stmt: e.curStmt(),
				Limit: int64(e.Limits.MaxLFPIters), Actual: int64(iters),
			}
		}
		if err := e.check(); err != nil {
			return nil, err
		}
		e.Stats.Joins++
		if next, err = e.fixExpand(seed, out, delta, next[:0], dir, track, prune); err != nil {
			return nil, err
		}
		e.Stats.Unions++
		delta, next = next, delta
	}
	e.putRowBuf(delta)
	e.putRowBuf(next)

	if startIdx != nil && endIdx != nil {
		// Both constraints pushed: the forward closure is post-filtered by
		// the end constraint.
		filtered := e.newRel("")
		for _, w := range out.rows {
			if endIdx.contains(w.t) {
				filtered.addRow(w)
				if track {
					filtered.SetPath(int(w.f), int(w.t), out.PathOf(int(w.f), int(w.t)))
				}
			}
		}
		out = filtered
	}
	return out, nil
}

// fixExpand runs one semi-naive iteration: every delta row probes the seed
// index and the new tuples are folded into out in scan order, appending the
// genuinely new ones to next. The parallel path scans into per-morsel
// candidate buffers merged in morsel order, so results and statistics are
// byte-identical to the serial fold.
func (e *Exec) fixExpand(seed, out *Relation, delta, next []row, dir fixDir, track bool, prune func(t int32) bool) ([]row, error) {
	var idx *colIndex
	if dir == fixFwd {
		idx = seed.fIndex()
	} else {
		idx = seed.tIndex()
	}
	srows := seed.probeRows()
	if workers := e.parWorkers(len(delta)); workers > 1 {
		scan := func(lo, hi int, buf []cand) []cand {
			for i := lo; i < hi; i++ {
				d := delta[i]
				key := d.t
				if dir == fixBwd {
					key = d.f
				}
				snap, over := idx.lookup(key)
				for _, part := range [2][]int32{snap, over} {
					for _, pos := range part {
						st := srows[pos]
						var nw row
						if dir == fixFwd {
							nw = row{f: d.f, t: st.t, v: st.v}
						} else {
							nw = row{f: st.f, t: d.t, v: d.v}
						}
						buf = append(buf, cand{out: nw, baseF: d.f, baseT: d.t})
					}
				}
			}
			return buf
		}
		bufs, err := e.scanMorsels(len(delta), workers, scan)
		if err != nil {
			return next, err
		}
		for _, buf := range bufs {
			for _, c := range buf {
				if out.addRow(c.out) {
					e.Stats.TuplesOut++
					if track {
						if dir == fixFwd {
							fixExtendPath(out, c.baseF, c.baseT, c.out.t)
						} else {
							fixPrependPath(out, c.out.f, c.baseF, c.baseT)
						}
					}
					if prune == nil || !prune(c.out.t) {
						next = append(next, c.out)
					}
				}
			}
		}
		return next, nil
	}
	for i := range delta {
		d := delta[i]
		key := d.t
		if dir == fixBwd {
			key = d.f
		}
		snap, over := idx.lookup(key)
		for _, part := range [2][]int32{snap, over} {
			for _, pos := range part {
				st := srows[pos]
				var nw row
				if dir == fixFwd {
					nw = row{f: d.f, t: st.t, v: st.v}
				} else {
					nw = row{f: st.f, t: d.t, v: d.v}
				}
				if out.addRow(nw) {
					e.Stats.TuplesOut++
					if track {
						if dir == fixFwd {
							fixExtendPath(out, d.f, d.t, nw.t)
						} else {
							fixPrependPath(out, nw.f, d.f, d.t)
						}
					}
					if prune == nil || !prune(nw.t) {
						next = append(next, nw)
					}
				}
			}
		}
	}
	return next, nil
}

// descScan evaluates the interval-containment descendant scan. With a valid
// document-order encoding stamped with the program's DTD fingerprint, each
// From-typed source node answers its To-typed proper descendants with one
// binary-searched range over the To relation's begin-sorted index — no
// fixpoint iteration at all. Otherwise the operator's fixpoint alternative is
// evaluated and the pushed constraints are applied as post-filters, so the
// result is identical on every path.
func (e *Exec) descScan(pl ra.DescScan) (*Relation, error) {
	var startIdx, endIdx *colIndex
	if pl.Start != nil {
		s, err := e.eval(pl.Start)
		if err != nil {
			return nil, err
		}
		startIdx = s.tIndex()
	}
	if pl.End != nil {
		s, err := e.eval(pl.End)
		if err != nil {
			return nil, err
		}
		endIdx = s.fIndex()
	}
	if e.IntervalMode != IntervalOff {
		out, ok, err := e.descScanFast(pl, startIdx, endIdx)
		if err != nil {
			return nil, err
		}
		if ok {
			return out, nil
		}
	}
	if e.IntervalMode == IntervalForce {
		return nil, fmt.Errorf("rdb: interval scan forced but unusable for %s→%s (missing or mismatched document-order encoding)", pl.From, pl.To)
	}
	alt, err := e.eval(pl.Alt)
	if err != nil {
		return nil, err
	}
	if startIdx == nil && endIdx == nil {
		return alt, nil
	}
	out := e.newRel("")
	for _, w := range alt.rows {
		if startIdx != nil && !startIdx.contains(w.f) {
			continue
		}
		if endIdx != nil && !endIdx.contains(w.t) {
			continue
		}
		out.addFrom(alt, w)
	}
	e.Stats.TuplesOut += out.Len()
	return out, nil
}

// descScanFast is the interval kernel behind descScan. It reports ok=false —
// without touching pl.Alt — when the fast path cannot be taken: no stored
// encoding, a DTD fingerprint mismatch (a program translated against a
// sub-DTD under-approximates the descendant relation, so containment would
// over-answer), or a relation node the encoding cannot place.
func (e *Exec) descScanFast(pl ra.DescScan, startIdx, endIdx *colIndex) (*Relation, bool, error) {
	db := e.DB
	if !db.fingerprintMatches(e.prog) {
		return nil, false, nil
	}
	st := db.ivs.Load()
	if e.scope != nil {
		st = e.scope.st
	}
	if st == nil {
		return nil, false, nil
	}
	// The To side is read only inside a source's interval, which a scope
	// contains: no bound of its own.
	toIdx, ok := st.indexFor(db.Rel(pl.To))
	if !ok {
		return nil, false, nil
	}
	// Distinct source nodes: the T values of R_From, in row order, filtered
	// by the pushed start constraint. A source the encoding cannot place
	// invalidates the whole scan (the encoding is stale for this document).
	fromRel, err := e.stored(pl.From)
	if err != nil {
		return nil, false, err
	}
	frows := fromRel.rows
	seen := e.idScratch(fromRel.distinctHint(fromRel.idxT.Load()))
	type src struct {
		id         int32
		begin, end int64
	}
	srcs := make([]src, 0, len(seen))
	for i := range frows {
		if fromRel.isDead(i) {
			continue
		}
		t := frows[i].t
		if _, dup := seen[t]; dup {
			continue
		}
		seen[t] = struct{}{}
		if startIdx != nil && !startIdx.contains(t) {
			continue
		}
		iv, has := st.iv[int(t)]
		if !has {
			return nil, false, nil
		}
		srcs = append(srcs, src{id: t, begin: iv.Begin, end: iv.End})
	}
	e.Stats.DescScans++
	out := e.newRel("")
	n := len(srcs)
	scan := func(lo, hi int, buf []cand) []cand {
		for i := lo; i < hi; i++ {
			x := srcs[i]
			jlo, jhi := toIdx.rangeOf(x.begin, x.end)
			for j := jlo; j < jhi; j++ {
				to := toIdx.rows[j]
				if endIdx != nil && !endIdx.contains(to.t) {
					continue
				}
				buf = append(buf, cand{out: row{f: x.id, t: to.t, v: to.v}})
			}
		}
		return buf
	}
	if workers := e.parWorkers(n); workers > 1 {
		bufs, err := e.scanMorsels(n, workers, scan)
		if err != nil {
			return nil, true, err
		}
		for _, buf := range bufs {
			for _, c := range buf {
				if out.addRow(c.out) {
					e.Stats.TuplesOut++
				}
			}
		}
		return out, true, nil
	}
	for _, c := range scan(0, n, nil) {
		if out.addRow(c.out) {
			e.Stats.TuplesOut++
		}
	}
	return out, true, nil
}

// recUnion evaluates the SQL'99-style multi-relation fixpoint of SQLGen-R.
// In edge mode (Pairs false) the result accumulates *edges* reachable from
// the seed exactly as in Fig 2 / Table 2; in pair mode it accumulates
// (origin, current) pairs, the product-automaton form. Either way each tuple
// carries an Rid tag and every iteration performs one join and one union per
// edge relation against the *entire accumulated relation*, per Eq. (1):
// R_i ← R_{i−1} ∪ (R_{i−1} ⋈ R_1) ∪ … ∪ (R_{i−1} ⋈ R_k). The operator is a
// black box ("the relation in the center keeps growing, but one can do
// little to optimize the operations inside the with…recursion expression",
// §3.1), so no delta optimization is applied — that asymmetry against the
// single-input Φ(R), which CONNECT BY evaluates level by level, is exactly
// the effect the paper's experiments measure. The per-edge scan of the
// accumulated relation does run morsel-parallel (an engine-level freedom the
// black box leaves open), with the same join/union accounting.
func (e *Exec) recUnion(pl ra.RecUnion) (*Relation, error) {
	e.Stats.RecFixes++
	type tagged struct {
		w   row
		tag int32
	}
	tagIdx := map[string]int32{}
	tagOf := func(tag string) int32 {
		i, ok := tagIdx[tag]
		if !ok {
			i = int32(len(tagIdx))
			tagIdx[tag] = i
		}
		return i
	}
	// seen deduplicates (tag, F, T) with one open-addressing pair set per
	// tag — tags are few (one per DTD type on a cycle).
	var seen []pairSet
	all := e.newRel("")
	result := all
	if pl.ResultTag != "" {
		result = e.newRel("")
	}
	resultTag := int32(-1)
	if pl.ResultTag != "" {
		resultTag = tagOf(pl.ResultTag)
	}
	// acc is the growing star-center relation R of Eq. (1)/Fig 2.
	var acc []tagged
	grew := false
	add := func(tag int32, w row) {
		for int(tag) >= len(seen) {
			seen = append(seen, pairSet{})
		}
		if !seen[tag].insert(packPair(w.f, w.t)) {
			return
		}
		all.addRow(w)
		if tag == resultTag {
			result.addRow(w)
		}
		e.Stats.TuplesOut++
		acc = append(acc, tagged{w: w, tag: tag})
		grew = true
	}
	for _, init := range pl.Init {
		r, err := e.eval(init.Plan)
		if err != nil {
			return nil, err
		}
		tag := tagOf(init.Tag)
		for _, w := range r.rows {
			if r.syms != all.syms && w.v != 0 {
				w.v = all.interner().Intern(r.interner().Str(w.v))
			}
			add(tag, w)
		}
	}
	// Pre-evaluate edge relations (they are base tables in SQLGen-R plans).
	edgeRels := make([]*Relation, len(pl.Edges))
	edgeFrom := make([]int32, len(pl.Edges))
	edgeTo := make([]int32, len(pl.Edges))
	for i, ed := range pl.Edges {
		r, err := e.eval(ed.Rel)
		if err != nil {
			return nil, err
		}
		edgeRels[i] = r
		edgeFrom[i] = tagOf(ed.FromTag)
		edgeTo[i] = tagOf(ed.ToTag)
	}
	iters := 0
	for grew = true; grew; {
		grew = false
		iters++
		e.Stats.LFPIters++
		if e.Limits.MaxLFPIters > 0 && iters > e.Limits.MaxLFPIters {
			return nil, &obs.LimitError{
				Kind: obs.LimitLFPIters, Stmt: e.curStmt(),
				Limit: int64(e.Limits.MaxLFPIters), Actual: int64(iters),
			}
		}
		if err := e.check(); err != nil {
			return nil, err
		}
		// One join + one union per edge relation against the whole of R:
		// the star-shaped body of Fig 2.
		snapshot := len(acc)
		for i := range pl.Edges {
			e.Stats.Joins++
			e.Stats.Unions++
			rel := edgeRels[i]
			idx := rel.fIndex()
			rrows := rel.probeRows()
			from, to := edgeFrom[i], edgeTo[i]
			pairs := pl.Pairs
			scan := func(lo, hi int, buf []cand) []cand {
				for j := lo; j < hi; j++ {
					d := acc[j]
					if d.tag != from {
						continue
					}
					snap, over := idx.lookup(d.w.t)
					for _, part := range [2][]int32{snap, over} {
						for _, pos := range part {
							et := rrows[pos]
							if pairs {
								// Keep the origin: (d.F, edge.T).
								buf = append(buf, cand{out: row{f: d.w.f, t: et.t, v: et.v}})
							} else {
								// Fig 2: insert the edge's own (F, T).
								buf = append(buf, cand{out: et})
							}
						}
					}
				}
				return buf
			}
			if workers := e.parWorkers(snapshot); workers > 1 {
				bufs, err := e.scanMorsels(snapshot, workers, scan)
				if err != nil {
					return nil, err
				}
				for _, buf := range bufs {
					for _, c := range buf {
						add(to, c.out)
					}
				}
			} else {
				for _, c := range scan(0, snapshot, nil) {
					add(to, c.out)
				}
			}
		}
	}
	return result, nil
}
