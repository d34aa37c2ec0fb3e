package rdb

import (
	"context"
	"errors"
	"fmt"
	"time"

	"xpath2sql/internal/obs"
	"xpath2sql/internal/ra"
)

// Stats records the work an execution performed; the benchmark harness
// reports these alongside wall-clock time. The JSON tags are the "stats"
// object of the HTTP API: the server encodes this struct and a router decodes
// a shard's answer into it.
type Stats struct {
	StmtsRun     int `json:"stmts_run"`     // statements actually evaluated (lazy evaluation skips some)
	Joins        int `json:"joins"`         // hash joins performed (compose/semi/anti + fixpoint steps)
	Unions       int `json:"unions"`        // two-way unions performed
	LFPs         int `json:"lfps"`          // Φ(R) operators evaluated
	LFPIters     int `json:"lfp_iters"`     // total fixpoint iterations across all Φ and RecUnion
	RecFixes     int `json:"rec_fixes"`     // multi-relation fixpoints evaluated (SQLGen-R)
	TuplesOut    int `json:"tuples_out"`    // tuples produced across all operators
	DescScans    int `json:"desc_scans"`    // descendant closures answered by the interval kernel
	StairScans   int `json:"stair_scans"`   // of those, scans of a one-F context from its outermost sources (Exec.eval)
	ExistsProbes int `json:"exists_probes"` // qualifier operators evaluated for their F column alone (Exec.eval)
}

// Ops converts the counters to the per-statement shape of the obs layer.
func (s Stats) Ops() obs.OpStats {
	return obs.OpStats{
		Joins:        s.Joins,
		Unions:       s.Unions,
		LFPs:         s.LFPs,
		LFPIters:     s.LFPIters,
		RecFixes:     s.RecFixes,
		TuplesOut:    s.TuplesOut,
		DescScans:    s.DescScans,
		StairScans:   s.StairScans,
		ExistsProbes: s.ExistsProbes,
	}
}

// Minus returns the fieldwise difference a - b: the work performed between
// two snapshots of an executor's counters.
func (a Stats) Minus(b Stats) Stats {
	return Stats{
		Joins:        a.Joins - b.Joins,
		Unions:       a.Unions - b.Unions,
		LFPs:         a.LFPs - b.LFPs,
		LFPIters:     a.LFPIters - b.LFPIters,
		RecFixes:     a.RecFixes - b.RecFixes,
		TuplesOut:    a.TuplesOut - b.TuplesOut,
		StmtsRun:     a.StmtsRun - b.StmtsRun,
		DescScans:    a.DescScans - b.DescScans,
		StairScans:   a.StairScans - b.StairScans,
		ExistsProbes: a.ExistsProbes - b.ExistsProbes,
	}
}

// Add accumulates b into s fieldwise: the inverse of Minus, used wherever
// per-query or per-shard counters are summed.
func (s *Stats) Add(b Stats) {
	s.Joins += b.Joins
	s.Unions += b.Unions
	s.LFPs += b.LFPs
	s.LFPIters += b.LFPIters
	s.RecFixes += b.RecFixes
	s.TuplesOut += b.TuplesOut
	s.StmtsRun += b.StmtsRun
	s.DescScans += b.DescScans
	s.StairScans += b.StairScans
	s.ExistsProbes += b.ExistsProbes
}

// Exec evaluates programs against a database.
type Exec struct {
	DB    *DB
	Stats Stats

	// Lazy enables the top-down evaluation strategy of §5.2: a statement is
	// computed only when referenced. Disabled, statements run in order.
	Lazy bool

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
	// ErrScopeNeedsIntervals.
	Doc int

	prog    *ra.Program
	env     map[string]*Relation
	ident   *Relation // cached R_id (unscoped runs)
	running map[string]bool
	scope   *docScope   // resolved from Doc per run; nil = whole database
	views   []*Relation // the run's scoped views of stored relations
	wits    []*Relation // evalF's stack of witness relations
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

// NewExec returns an executor with lazy (top-down) evaluation enabled.
func NewExec(db *DB) *Exec {
	return &Exec{DB: db, Lazy: true}
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

// prepare empties the environment, arms the cancellation/limit/trace state
// for one run of p and resolves its document scope. It refuses a program
// naming two statements alike, whose lookup would silently take the first;
// the check borrows the running set, so a warm run allocates nothing for it.
func (e *Exec) prepare(ctx context.Context, p *ra.Program, trace *obs.Trace) error {
	if e.env == nil {
		e.env = map[string]*Relation{}
		e.running = map[string]bool{}
	} else {
		clear(e.env)
		clear(e.running)
	}
	for _, s := range p.Stmts {
		if e.running[s.Name] {
			clear(e.running)
			return fmt.Errorf("rdb: duplicate statement %q", s.Name)
		}
		e.running[s.Name] = true
	}
	clear(e.running)
	e.prog = p
	e.scope, e.views, e.docID, e.wits = nil, e.views[:0], nil, e.wits[:0]
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

// Run executes the program and returns its result relation.
func (e *Exec) Run(p *ra.Program) (*Relation, error) {
	return e.RunCtx(context.Background(), p, nil)
}

// RunCtx executes the program under a context: ctx.Err() is checked between
// statements, between fixpoint iterations and every checkEvery sources of an
// interval scan, so a cancelled or expired context makes the run return
// promptly with context.Canceled or context.DeadlineExceeded. The executor's Limits
// are enforced at the same points, returning typed *obs.LimitError values.
// When trace is non-nil, one obs.StmtEvent is recorded per evaluated
// statement with its exclusive operator counts, cardinalities and wall time;
// the trace totals then agree with e.Stats.
func (e *Exec) RunCtx(ctx context.Context, p *ra.Program, trace *obs.Trace) (*Relation, error) {
	if err := e.prepare(ctx, p, trace); err != nil {
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

// check enforces the context and the global limits. It is called as each
// statement starts and finishes and between fixpoint iterations — the points
// where execution can be abandoned without leaving shared state corrupted.
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
		// The bounds again, over what the statement produced: under Lazy every
		// statement of a dependency chain starts before any tuple exists.
		err = e.check()
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
			parent.child.Add(inclusive)
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
					total += e.DB.NumNodes() + 1
				}
			}
		case ra.RootSeed:
			if !seen["\x00root"] {
				seen["\x00root"] = true
				total++
			}
		case ra.TypeFilter:
			base(p.Rel)
		case ra.DescScan:
			base(p.From)
			base(p.To)
		}
		for _, k := range ra.Inputs(p) {
			walk(k)
		}
	}
	walk(pl)
	return total
}

// eval is the pull driver of the operator kernels (ops.go): it resolves a
// plan's operands — stored relations under the run's scope, memoised
// statements, nested operators, in ra.Inputs order — and applies the operator
// to them — only the part of an operator its consumer reads (evalDesc, evalF).
// ViewState applies every operator whole: its Δ rules read them all.
func (e *Exec) eval(pl ra.Plan) (*Relation, error) {
	switch pl := pl.(type) {
	case ra.Base:
		return e.stored(pl.Rel)
	case ra.Temp:
		return e.stmt(pl.Name)
	case ra.Ident:
		return e.identRel()
	case ra.DescScan:
		r, _, err := e.evalDesc(pl, descUse{})
		return r, err
	case ra.Compose:
		ds, ok := pl.R.(ra.DescScan)
		if !ok {
			break
		}
		l, err := e.eval(pl.L)
		if err != nil {
			return nil, err
		}
		var stair *Relation
		f, one := oneF(l)
		if one {
			stair = l
		}
		r, answered, err := e.evalDesc(ds, descUse{stair: stair, stairF: f})
		if err != nil || answered && stair != nil {
			return r, err
		}
		return e.compose(l, r, e.distinct(pl))
	}
	// Stack buffers: a warm pooled run must not allocate per operator.
	var planBuf [4]ra.Plan
	var relBuf [8]*Relation
	in := relBuf[:0]
	_, semi := pl.(ra.Semijoin)
	_, anti := pl.(ra.Antijoin)
	for i, p := range ra.AppendInputs(planBuf[:0], pl) {
		if i == 1 && (semi || anti) {
			at := len(e.wits)
			if err := e.evalF(p, nil); err != nil {
				return nil, err
			}
			in, e.wits = append(in, e.wits[at:]...), e.wits[:at]
			continue
		}
		r, err := e.eval(p)
		if err != nil {
			return nil, err
		}
		in = append(in, r)
	}
	return e.apply(pl, in)
}

// evalDesc evaluates a DescScan for use by the interval kernel or, if it cannot
// answer (answered false), whole: the fixpoint alternative, filtered.
func (e *Exec) evalDesc(pl ra.DescScan, use descUse) (out *Relation, answered bool, err error) {
	var startIdx, endIdx *colIndex // w.f ∈ π_T(Start), w.t ∈ π_F(End)
	if pl.Start != nil {
		if out, err = e.eval(pl.Start); err != nil {
			return nil, false, err
		}
		startIdx = out.members(false)
	}
	if pl.End != nil {
		if out, err = e.eval(pl.End); err != nil {
			return nil, false, err
		}
		endIdx = out.members(true)
	}
	if e.IntervalMode != IntervalOff {
		k, err := e.openDesc(pl)
		if err == nil {
			out, err = e.descScanFast(k, use, startIdx, endIdx)
			return out, err == nil, err
		}
		if !errors.Is(err, errNoDescKernel) {
			return nil, false, err
		}
		if e.IntervalMode == IntervalForce {
			return nil, false, fmt.Errorf("rdb: interval scan forced but unusable for %s→%s (missing or mismatched document-order encoding)", pl.From, pl.To)
		}
	}
	alt, err := e.eval(pl.Alt)
	if err != nil {
		return nil, false, err
	}
	return e.descFilter(alt, startIdx, endIdx), false, nil
}

// oneF reports whether rs have live rows and all of them hold one F value, f:
// a context rooted at σ[F='_'].
func oneF(rs ...*Relation) (f int32, ok bool) {
	for _, r := range rs {
		dead := r.dead
		for i, w := range r.rows {
			switch {
			case dead.has(i):
			case !ok:
				f, ok = w.f, true
			case w.f != f:
				return 0, false
			}
		}
	}
	return f, ok
}

// evalF pushes onto e.wits relations whose F columns together are π_F(p ∘ S),
// S being s (π_F(p) when s is nil), without deriving p whole: a union is its
// operands' sets; a compose is reduced from the right; a DescScan keeps the
// sources with a descendant in S; any other plan is evaluated, then reduced
// against S (witnessRows). No step does more work of any kind than the whole
// plan, so a union under a compose (one join per operand) is evaluated whole.
func (e *Exec) evalF(p ra.Plan, s []*Relation) error {
	var r *Relation
	var err error
	switch p := p.(type) {
	case ra.UnionAll:
		if s != nil || len(p.Kids) == 0 {
			r, err = e.eval(p)
			break
		}
		e.Stats.ExistsProbes++
		for _, k := range p.Kids {
			if err := e.evalF(k, nil); err != nil {
				return err
			}
		}
		return nil
	case ra.Compose:
		e.Stats.ExistsProbes++
		at := len(e.wits)
		if err := e.evalF(p.R, s); err != nil {
			return err
		}
		right := len(e.wits) // ≥ at+1: every case pushes a relation
		if err := e.evalF(p.L, e.wits[at:right]); err != nil {
			return err
		}
		e.wits = append(e.wits[:at], e.wits[right:]...)
		return nil
	case ra.DescScan:
		var answered bool
		r, answered, err = e.evalDesc(p, descUse{exists: true, s: s})
		if answered {
			s = nil
		}
	default:
		r, err = e.eval(p)
	}
	if err != nil {
		return err
	}
	if s != nil {
		r = e.witnessRows(r, s)
	}
	e.wits = append(e.wits, r)
	return nil
}

// distinct reports whether pl, an operator of the running program, derives no
// pair twice (ra.Keys). Only a stamped program translated against the
// database's DTD is known to: a hand-built program or a random database is
// deduplicated.
func (e *Exec) distinct(pl ra.Plan) bool {
	return e.DB.fingerprintMatches(e.prog) && e.prog.Distinct(pl)
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
		e.ident = e.newIdent()
	}
	return e.ident, nil
}

// newIdent builds the unscoped R_id. Allocated off-arena: pooled executors
// retain it across requests against the same DB (AcquireState drops it on a
// rebind, even to another epoch of the same store, whose nodes differ), and a
// view node keeps its own copy to advance.
func (e *Exec) newIdent() *Relation {
	r := newRelation("Rid", e.DB.Syms)
	tab := e.DB.nodes.Load().tab
	r.grow(tab.nodes + 1)
	r.addRow(row{})
	tab.eachNode(func(id int, _, val, _ int32) {
		r.addRow(row{f: int32(id), t: int32(id), v: val})
	})
	return r
}
