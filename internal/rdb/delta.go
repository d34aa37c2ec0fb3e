package rdb

// Incremental view maintenance over translated programs. A ViewState
// materializes the output of every operator in a program's reachable plan
// tree and advances those materializations under document updates using the
// same semi-naive delta machinery the fixpoint executor runs internally —
// instead of re-running Φ from scratch, an insert seeds the closure's
// frontier with exactly the tuples the new edges admit, and a delete prunes
// whole subtrees out of every materialization via the document-order
// interval encoding.
//
// Maintainability is a property of the plan. Three independent classes:
//
//   - insertable: no Antijoin/Diff/RecUnion and no path tracking — the plan
//     is monotone, so an insert can only add tuples and per-operator delta
//     rules are exact. The store assigns fresh node IDs to inserted nodes
//     (IDs are never reused), which the rules rely on: an old tuple can
//     never newly enter a type relation or identity relation.
//   - deletable: insertable, no Semijoin, and no pushed end constraints.
//     Deleting a subtree removes exactly the tuples that touch a deleted
//     node: in this fragment every relation pairs an ancestor-side F with a
//     descendant-side T, so a tuple whose endpoints survive has its whole
//     witnessing path intact and every materialization stays exact after
//     pruning dead rows. A Semijoin breaks this — a surviving tuple can lose
//     its only witness in π_F(R) when the witness row's descendant side dies
//     — and a Fix/DescScan end constraint is the same semijoin in disguise,
//     as is any non-monotone operator.
//   - text-immune: no SelectVal — answers are node-ID sets and membership
//     never depends on a V attribute, so UpdateText is a no-op.
//
// Anything outside a class falls back to full re-evaluation (Rebuild), which
// diffs the fresh answer against the maintained one so subscribers still see
// exact per-epoch deltas. That is the DRed-style re-derivation fallback: a
// deleted tuple with possible alternate derivations (Semijoin witnesses) is
// re-derived by recomputation rather than counted.
//
// A ViewState is not safe for concurrent use; the ivm layer serializes all
// access through its maintainer goroutine.

import (
	"errors"
	"fmt"
	"sort"

	"xpath2sql/internal/ra"
)

// ErrNonIncremental reports that an update cannot be applied as a delta to
// this view — the caller should fall back to Rebuild. After any error from
// ApplyInsert/ApplyDelete the materializations may be partially advanced and
// Rebuild is required before further deltas.
var ErrNonIncremental = errors.New("rdb: view not incrementally maintainable for this update")

// DeltaEdge is one base-relation row added by an insert transaction, in
// exchange form.
type DeltaEdge struct {
	F, T int
	V    string
}

// BaseDelta names exactly what an insert transaction added: the new rows per
// stored relation and the new node IDs (all fresh — never previously used).
type BaseDelta struct {
	Rows   map[string][]DeltaEdge
	NewIDs []int
}

// ViewState is a standing query's materialized operator tree plus its
// maintained answer multiset. Build one with BuildViewState against a
// database snapshot, then advance it epoch by epoch with ApplyInsert /
// ApplyDelete / ApplyText, or recompute with Rebuild.
type ViewState struct {
	prog *ra.Program
	db   *DB
	ex   *Exec     // internal executor: compose/fixExpand kernels + stats
	syms *Interner // the shared interner every epoch must carry

	opaque     bool // no operator tree: maintained by Rebuild only
	insertable bool
	deletable  bool
	textImmune bool

	stmts  map[string]*viewStmt
	result *viewStmt

	// counts is the answer multiset: result-relation row count per T. Keys
	// with positive counts (minus the virtual root 0) are the answer.
	counts map[int32]int

	round uint64

	// DeltaStats accumulates the work performed by delta maintenance;
	// FullStats the work of full (re)builds. Their TuplesOut ratio is the
	// maintenance-vs-rerun economy the metrics endpoint reports.
	DeltaStats Stats
	FullStats  Stats
}

type viewStmt struct {
	name     string
	root     *viewNode
	visiting bool // cycle guard during build
}

// viewNode materializes one operator's output. Base and Temp nodes hold no
// relation of their own (Base reads the live stored relation, Temp aliases
// its statement's root).
type viewNode struct {
	plan ra.Plan
	kids []*viewNode
	stmt *viewStmt // Temp target

	out *Relation
	// aux, on a Fix with both constraints pushed, is the unfiltered
	// start-restricted closure; out is its end-filtered projection. The
	// closure is what delta rounds advance.
	aux *Relation
	// useFast marks a DescScan maintained through the interval kernel
	// (decided at build time); otherwise its Alt subtree is maintained.
	useFast bool

	delta *Relation // this round's genuinely-new rows
	round uint64
}

// BuildViewState materializes prog's operator tree against db and returns
// the maintainable view state. Plans outside the incremental fragment build
// in opaque mode: the answer is materialized but every update goes through
// Rebuild.
func BuildViewState(db *DB, prog *ra.Program) (*ViewState, error) {
	vs := &ViewState{
		prog:   prog,
		db:     db,
		ex:     &Exec{DB: db, Lazy: true, Parallelism: 1},
		syms:   db.Syms,
		stmts:  map[string]*viewStmt{},
		counts: map[int32]int{},
	}
	vs.classify()
	if vs.insertable {
		st, err := vs.buildStmt(prog.Result)
		if errors.Is(err, ErrNonIncremental) {
			vs.opaque = true
			vs.insertable, vs.deletable = false, false
		} else if err != nil {
			return nil, err
		} else {
			vs.result = st
		}
	} else {
		vs.opaque = true
	}
	if vs.opaque {
		if err := vs.rebuildOpaque(); err != nil {
			return nil, err
		}
		return vs, nil
	}
	snap := vs.ex.Stats
	if err := vs.evalStmt(vs.result); err != nil {
		if !errors.Is(err, ErrNonIncremental) {
			return nil, err
		}
		vs.degradeToOpaque()
		if err := vs.rebuildOpaque(); err != nil {
			return nil, err
		}
		return vs, nil
	}
	vs.FullStats = addDelta(vs.FullStats, vs.ex.Stats.Minus(snap))
	vs.refreshCounts()
	return vs, nil
}

// degradeToOpaque abandons the operator tree: the view stays correct but
// every update goes through Rebuild.
func (vs *ViewState) degradeToOpaque() {
	vs.opaque = true
	vs.insertable, vs.deletable = false, false
	vs.stmts, vs.result = nil, nil
}

// Insertable reports whether InsertSubtree updates apply as deltas.
func (vs *ViewState) Insertable() bool { return vs.insertable }

// Deletable reports whether DeleteSubtree updates apply as subtree pruning.
func (vs *ViewState) Deletable() bool { return vs.deletable }

// TextImmune reports whether UpdateText updates are no-ops for this view.
func (vs *ViewState) TextImmune() bool { return vs.textImmune }

// AnswerIDs returns the maintained answer: ascending node IDs, virtual root
// excluded — identical to executing the program and extracting IDs.
func (vs *ViewState) AnswerIDs() []int {
	out := make([]int, 0, len(vs.counts))
	for t, c := range vs.counts {
		if c > 0 && t != 0 {
			out = append(out, int(t))
		}
	}
	sort.Ints(out)
	return out
}

// classify walks every plan reachable from the result statement and derives
// the view's maintainability classes.
func (vs *ViewState) classify() {
	vs.insertable, vs.deletable, vs.textImmune = true, true, true
	seen := map[string]bool{}
	var walkStmt func(name string)
	var walk func(p ra.Plan)
	walkStmt = func(name string) {
		if seen[name] {
			return
		}
		seen[name] = true
		if pl := vs.prog.Lookup(name); pl != nil {
			walk(pl)
		}
	}
	walk = func(p ra.Plan) {
		switch p := p.(type) {
		case ra.Base, ra.Ident, ra.RootSeed:
		case ra.Temp:
			walkStmt(p.Name)
		case ra.IdentOf:
			if p.OnF {
				// (f, f) rows keep an existential witness on the child's F
				// column; the witness row can die (descendant side deleted)
				// while f stays alive. The OnT projection is safe: t alive
				// implies its ancestor-side f is alive too.
				vs.deletable = false
			}
			walk(p.Child)
		case ra.Compose:
			walk(p.L)
			walk(p.R)
		case ra.UnionAll:
			for _, k := range p.Kids {
				walk(k)
			}
		case ra.Fix:
			if p.TrackPaths {
				vs.insertable, vs.deletable = false, false
			}
			if p.End != nil {
				// An end constraint is a semijoin on π_F(end): an alive
				// closure node can lose its last witness when the witness
				// row's descendant side dies, so subtree pruning alone is
				// not exact.
				vs.deletable = false
			}
			walk(p.Seed)
			if p.Start != nil {
				walk(p.Start)
			}
			if p.End != nil {
				walk(p.End)
			}
		case ra.SelectVal:
			vs.textImmune = false
			walk(p.Child)
		case ra.SelectRoot:
			walk(p.Child)
		case ra.Semijoin:
			vs.deletable = false
			walk(p.L)
			walk(p.R)
		case ra.Antijoin:
			vs.insertable, vs.deletable = false, false
			walk(p.L)
			walk(p.R)
		case ra.Diff:
			vs.insertable, vs.deletable = false, false
			walk(p.L)
			walk(p.R)
		case ra.TypeFilter:
			walk(p.Child)
		case ra.DescScan:
			if p.End != nil {
				vs.deletable = false // see ra.Fix: π_F(end) witness loss
			}
			walk(p.Alt)
			if p.Start != nil {
				walk(p.Start)
			}
			if p.End != nil {
				walk(p.End)
			}
		case ra.RecUnion:
			vs.insertable, vs.deletable = false, false
			for _, t := range p.Init {
				walk(t.Plan)
			}
			for _, ed := range p.Edges {
				walk(ed.Rel)
			}
		default:
			vs.insertable, vs.deletable, vs.textImmune = false, false, false
		}
	}
	walkStmt(vs.prog.Result)
}

// --- tree construction ---------------------------------------------------

func (vs *ViewState) buildStmt(name string) (*viewStmt, error) {
	if st, ok := vs.stmts[name]; ok {
		if st.visiting {
			return nil, fmt.Errorf("rdb: cyclic statement reference %q", name)
		}
		return st, nil
	}
	pl := vs.prog.Lookup(name)
	if pl == nil {
		return nil, fmt.Errorf("rdb: unknown statement %q", name)
	}
	st := &viewStmt{name: name, visiting: true}
	vs.stmts[name] = st
	root, err := vs.buildNode(pl)
	if err != nil {
		return nil, err
	}
	st.root = root
	st.visiting = false
	return st, nil
}

func (vs *ViewState) buildNode(pl ra.Plan) (*viewNode, error) {
	n := &viewNode{plan: pl}
	addKid := func(p ra.Plan) error {
		k, err := vs.buildNode(p)
		if err != nil {
			return err
		}
		n.kids = append(n.kids, k)
		return nil
	}
	switch pl := pl.(type) {
	case ra.Base, ra.Ident, ra.RootSeed:
	case ra.Temp:
		st, err := vs.buildStmt(pl.Name)
		if err != nil {
			return nil, err
		}
		n.stmt = st
	case ra.IdentOf:
		if err := addKid(pl.Child); err != nil {
			return nil, err
		}
	case ra.Compose:
		if err := addKid(pl.L); err != nil {
			return nil, err
		}
		if err := addKid(pl.R); err != nil {
			return nil, err
		}
	case ra.UnionAll:
		for _, k := range pl.Kids {
			if err := addKid(k); err != nil {
				return nil, err
			}
		}
	case ra.Fix:
		if pl.TrackPaths {
			return nil, ErrNonIncremental
		}
		if err := addKid(pl.Seed); err != nil {
			return nil, err
		}
		if pl.Start != nil {
			if err := addKid(pl.Start); err != nil {
				return nil, err
			}
		}
		if pl.End != nil {
			if err := addKid(pl.End); err != nil {
				return nil, err
			}
		}
	case ra.SelectVal:
		if err := addKid(pl.Child); err != nil {
			return nil, err
		}
	case ra.SelectRoot:
		if err := addKid(pl.Child); err != nil {
			return nil, err
		}
	case ra.Semijoin:
		if err := addKid(pl.L); err != nil {
			return nil, err
		}
		if err := addKid(pl.R); err != nil {
			return nil, err
		}
	case ra.TypeFilter:
		if err := addKid(pl.Child); err != nil {
			return nil, err
		}
	case ra.DescScan:
		// Decide the maintenance strategy now: through the interval kernel
		// when the database carries a matching encoding, else through the
		// fixpoint alternative subtree.
		n.useFast = vs.descFastUsable(pl)
		if !n.useFast {
			if err := addKid(pl.Alt); err != nil {
				return nil, err
			}
		}
		if pl.Start != nil {
			if err := addKid(pl.Start); err != nil {
				return nil, err
			}
		}
		if pl.End != nil {
			if err := addKid(pl.End); err != nil {
				return nil, err
			}
		}
	default:
		// Antijoin, Diff, RecUnion, unknown: not tree-maintainable.
		return nil, ErrNonIncremental
	}
	return n, nil
}

// descFastUsable mirrors descScanFast's gate: a matching DTD fingerprint, a
// valid encoding, and a buildable begin-sorted index over the To relation.
func (vs *ViewState) descFastUsable(pl ra.DescScan) bool {
	if vs.prog.DTDFP == "" || vs.prog.DTDFP != vs.db.DTDFP || !vs.db.HasIntervals() {
		return false
	}
	_, ok := vs.db.descIndexFor(vs.db.Rel(pl.To))
	return ok
}

// --- full evaluation -----------------------------------------------------

func (vs *ViewState) newRel() *Relation { return newRelation("", vs.syms) }

// nodeOut resolves a node's current output relation (live stored relation
// for Base, the statement root's output for Temp).
func (vs *ViewState) nodeOut(n *viewNode) *Relation {
	switch pl := n.plan.(type) {
	case ra.Base:
		return vs.db.Rel(pl.Rel)
	case ra.Temp:
		return vs.nodeOut(n.stmt.root)
	}
	return n.out
}

func (vs *ViewState) evalStmt(st *viewStmt) error {
	if st.root.evaluated() {
		return nil
	}
	return vs.evalNode(st.root)
}

func (n *viewNode) evaluated() bool {
	switch n.plan.(type) {
	case ra.Base:
		return true
	case ra.Temp:
		return n.stmt.root.evaluated()
	}
	return n.out != nil
}

// evalNode fully materializes n's output (post-order) against vs.db.
func (vs *ViewState) evalNode(n *viewNode) error {
	switch n.plan.(type) {
	case ra.Base:
		return nil
	case ra.Temp:
		return vs.evalStmt(n.stmt)
	}
	if n.out != nil {
		return nil
	}
	for _, k := range n.kids {
		if err := vs.evalNode(k); err != nil {
			return err
		}
	}
	ex := vs.ex
	switch pl := n.plan.(type) {
	case ra.Ident:
		out := vs.newRel()
		out.grow(len(vs.db.Vals) + 1)
		out.addRow(row{})
		for id := range vs.db.Vals {
			out.addRow(row{f: int32(id), t: int32(id), v: vs.valSym(id)})
		}
		ex.Stats.TuplesOut += out.Len()
		n.out = out
	case ra.IdentOf:
		child := vs.nodeOut(n.kids[0])
		out := vs.newRel()
		for i := range child.rows {
			if child.isDead(i) {
				continue
			}
			id := child.rows[i].t
			if pl.OnF {
				id = child.rows[i].f
			}
			out.addRow(row{f: id, t: id, v: vs.valSym(int(id))})
		}
		ex.Stats.TuplesOut += out.Len()
		n.out = out
	case ra.Compose:
		out, err := ex.compose(vs.nodeOut(n.kids[0]), vs.nodeOut(n.kids[1]))
		if err != nil {
			return err
		}
		n.out = out
	case ra.UnionAll:
		out := vs.newRel()
		for i, k := range n.kids {
			if i > 0 {
				ex.Stats.Unions++
			}
			kr := vs.nodeOut(k)
			for j := range kr.rows {
				if kr.isDead(j) {
					continue
				}
				if out.addFrom(kr, kr.rows[j]) {
					ex.Stats.TuplesOut++
				}
			}
		}
		n.out = out
	case ra.Fix:
		return vs.evalFix(n, pl)
	case ra.SelectVal:
		child := vs.nodeOut(n.kids[0])
		out := vs.newRel()
		if sym, ok := child.symOf(pl.Val); ok {
			for i := range child.rows {
				if !child.isDead(i) && child.rows[i].v == sym {
					out.addFrom(child, child.rows[i])
				}
			}
		}
		ex.Stats.TuplesOut += out.Len()
		n.out = out
	case ra.SelectRoot:
		child := vs.nodeOut(n.kids[0])
		out := vs.newRel()
		for i := range child.rows {
			if !child.isDead(i) && child.rows[i].f == 0 {
				out.addFrom(child, child.rows[i])
			}
		}
		ex.Stats.TuplesOut += out.Len()
		n.out = out
	case ra.Semijoin:
		l, r := vs.nodeOut(n.kids[0]), vs.nodeOut(n.kids[1])
		ex.Stats.Joins++
		wit := r.fIndex()
		out := vs.newRel()
		for i := range l.rows {
			if !l.isDead(i) && wit.contains(l.rows[i].t) {
				out.addFrom(l, l.rows[i])
			}
		}
		ex.Stats.TuplesOut += out.Len()
		n.out = out
	case ra.RootSeed:
		out := vs.newRel()
		out.addRow(row{})
		n.out = out
	case ra.TypeFilter:
		child := vs.nodeOut(n.kids[0])
		ex.Stats.Joins++
		typed := vs.db.Rel(pl.Rel).tIndex()
		out := vs.newRel()
		for i := range child.rows {
			if child.isDead(i) {
				continue
			}
			w := child.rows[i]
			col := w.t
			if pl.OnF {
				col = w.f
			}
			if typed.contains(col) {
				out.addFrom(child, w)
			}
		}
		ex.Stats.TuplesOut += out.Len()
		n.out = out
	case ra.DescScan:
		return vs.evalDescScan(n, pl)
	default:
		return fmt.Errorf("rdb: unsupported view plan %T", n.plan)
	}
	return nil
}

func (vs *ViewState) valSym(id int) int32 {
	v, ok := vs.db.Vals[id]
	if !ok || v == "" {
		return 0
	}
	return vs.syms.Intern(v)
}

// fixIndexes resolves a Fix node's pushed constraint indexes from the
// materialized constraint subtrees.
func (vs *ViewState) fixIndexes(n *viewNode, pl ra.Fix) (startIdx, endIdx *colIndex) {
	ki := 1
	if pl.Start != nil {
		startIdx = vs.nodeOut(n.kids[ki]).tIndex()
		ki++
	}
	if pl.End != nil {
		endIdx = vs.nodeOut(n.kids[ki]).fIndex()
	}
	return startIdx, endIdx
}

// evalFix materializes Φ(R) for a view. Unlike the executor's fix it never
// applies interval frontier pruning: with both constraints pushed the full
// start-restricted closure is kept as the node's aux relation (what delta
// rounds advance) and the end filter projects it into out.
func (vs *ViewState) evalFix(n *viewNode, pl ra.Fix) error {
	ex := vs.ex
	seed := vs.nodeOut(n.kids[0])
	startIdx, endIdx := vs.fixIndexes(n, pl)
	ex.Stats.LFPs++
	out := vs.newRel()
	var delta []row
	dir := fixFwd
	switch {
	case startIdx != nil:
		for i := range seed.rows {
			w := seed.rows[i]
			if !seed.isDead(i) && startIdx.contains(w.f) && out.addRow(w) {
				ex.Stats.TuplesOut++
				delta = append(delta, w)
			}
		}
	case endIdx != nil:
		dir = fixBwd
		for i := range seed.rows {
			w := seed.rows[i]
			if !seed.isDead(i) && endIdx.contains(w.t) && out.addRow(w) {
				ex.Stats.TuplesOut++
				delta = append(delta, w)
			}
		}
	default:
		for i := range seed.rows {
			w := seed.rows[i]
			if !seed.isDead(i) && out.addRow(w) {
				ex.Stats.TuplesOut++
				delta = append(delta, w)
			}
		}
	}
	var next []row
	var err error
	for len(delta) > 0 {
		ex.Stats.LFPIters++
		ex.Stats.Joins++
		if next, err = ex.fixExpand(seed, out, delta, next[:0], dir, false, nil); err != nil {
			return err
		}
		ex.Stats.Unions++
		delta, next = next, delta
	}
	if startIdx != nil && endIdx != nil {
		n.aux = out
		filtered := vs.newRel()
		for i := range out.rows {
			if endIdx.contains(out.rows[i].t) {
				filtered.addRow(out.rows[i])
			}
		}
		n.out = filtered
		return nil
	}
	n.out = out
	return nil
}

// descIndexes resolves a DescScan node's constraint indexes; kid layout is
// [Alt,] Start?, End? depending on useFast.
func (vs *ViewState) descIndexes(n *viewNode, pl ra.DescScan) (startIdx, endIdx *colIndex) {
	ki := 0
	if !n.useFast {
		ki = 1
	}
	if pl.Start != nil {
		startIdx = vs.nodeOut(n.kids[ki]).tIndex()
		ki++
	}
	if pl.End != nil {
		endIdx = vs.nodeOut(n.kids[ki]).fIndex()
	}
	return startIdx, endIdx
}

func (vs *ViewState) evalDescScan(n *viewNode, pl ra.DescScan) error {
	startIdx, endIdx := vs.descIndexes(n, pl)
	out := vs.newRel()
	if !n.useFast {
		alt := vs.nodeOut(n.kids[0])
		for i := range alt.rows {
			if alt.isDead(i) {
				continue
			}
			w := alt.rows[i]
			if startIdx != nil && !startIdx.contains(w.f) {
				continue
			}
			if endIdx != nil && !endIdx.contains(w.t) {
				continue
			}
			out.addFrom(alt, w)
		}
		vs.ex.Stats.TuplesOut += out.Len()
		n.out = out
		return nil
	}
	db := vs.db
	toIdx, ok := db.descIndexFor(db.Rel(pl.To))
	if !ok {
		return ErrNonIncremental
	}
	fromRel := db.Rel(pl.From)
	seen := map[int32]struct{}{}
	vs.ex.Stats.DescScans++
	for i := range fromRel.rows {
		if fromRel.isDead(i) {
			continue
		}
		x := fromRel.rows[i].t
		if _, dup := seen[x]; dup {
			continue
		}
		seen[x] = struct{}{}
		if startIdx != nil && !startIdx.contains(x) {
			continue
		}
		iv, has := db.Interval(int(x))
		if !has {
			return ErrNonIncremental
		}
		jlo, jhi := toIdx.rangeOf(iv.Begin, iv.End)
		for j := jlo; j < jhi; j++ {
			t := toIdx.rows[j].t
			if endIdx != nil && !endIdx.contains(t) {
				continue
			}
			if out.addRow(row{f: x, t: t, v: toIdx.rows[j].v}) {
				vs.ex.Stats.TuplesOut++
			}
		}
	}
	n.out = out
	return nil
}

// refreshCounts recomputes the answer multiset from the result relation.
func (vs *ViewState) refreshCounts() {
	vs.counts = countRows(vs.resultRows())
}

// resultRows returns the result node's live rows.
func (vs *ViewState) resultRows() []row {
	r := vs.nodeOut(vs.result.root)
	if r.nDead == 0 {
		return r.rows
	}
	live := make([]row, 0, r.Len())
	for i := range r.rows {
		if !r.isDead(i) {
			live = append(live, r.rows[i])
		}
	}
	return live
}

func countRows(rows []row) map[int32]int {
	counts := make(map[int32]int, len(rows))
	for _, w := range rows {
		counts[w.t]++
	}
	return counts
}

// --- insert maintenance --------------------------------------------------

// ApplyInsert advances the view to newDB, which must be the epoch
// immediately following the one the view is at, produced by one
// InsertSubtree described by bd. It returns the node IDs that entered the
// answer, ascending. On any error the materializations may be inconsistent
// and the caller must Rebuild.
func (vs *ViewState) ApplyInsert(newDB *DB, bd BaseDelta) ([]int, error) {
	if vs.opaque || !vs.insertable {
		return nil, ErrNonIncremental
	}
	if newDB.Syms != vs.syms {
		return nil, ErrNonIncremental
	}
	vs.db = newDB
	vs.ex.DB = newDB
	vs.ex.ident = nil
	vs.round++
	snap := vs.ex.Stats
	d, err := vs.nodeDelta(vs.result.root, &bd)
	if err != nil {
		return nil, err
	}
	vs.DeltaStats = addDelta(vs.DeltaStats, vs.ex.Stats.Minus(snap))
	var added []int
	for _, w := range d.rows {
		c := vs.counts[w.t]
		vs.counts[w.t] = c + 1
		if c == 0 && w.t != 0 {
			added = append(added, int(w.t))
		}
	}
	sort.Ints(added)
	return added, nil
}

// foldInto adds every candidate row to out, returning the genuinely-new ones
// as the node's propagated delta.
func (vs *ViewState) foldInto(out *Relation, cand *Relation) *Relation {
	d := vs.newRel()
	for i := range cand.rows {
		if out.addRow(cand.rows[i]) {
			vs.ex.Stats.TuplesOut++
			d.addRow(cand.rows[i])
		}
	}
	return d
}

// nodeDelta computes (once per round, post-order) the genuinely-new rows of
// n's output under the insert and advances the materialization.
func (vs *ViewState) nodeDelta(n *viewNode, bd *BaseDelta) (*Relation, error) {
	if n.round == vs.round {
		return n.delta, nil
	}
	kd := make([]*Relation, len(n.kids))
	for i, k := range n.kids {
		d, err := vs.nodeDelta(k, bd)
		if err != nil {
			return nil, err
		}
		kd[i] = d
	}
	var d *Relation
	var err error
	switch pl := n.plan.(type) {
	case ra.Base:
		d = vs.newRel()
		for _, e := range bd.Rows[pl.Rel] {
			d.Add(e.F, e.T, e.V)
		}
	case ra.Temp:
		if d, err = vs.nodeDelta(n.stmt.root, bd); err != nil {
			return nil, err
		}
	case ra.Ident:
		cand := vs.newRel()
		for _, id := range bd.NewIDs {
			cand.addRow(row{f: int32(id), t: int32(id), v: vs.valSym(id)})
		}
		d = vs.foldInto(n.out, cand)
	case ra.IdentOf:
		cand := vs.newRel()
		for i := range kd[0].rows {
			id := kd[0].rows[i].t
			if pl.OnF {
				id = kd[0].rows[i].f
			}
			cand.addRow(row{f: id, t: id, v: vs.valSym(int(id))})
		}
		d = vs.foldInto(n.out, cand)
	case ra.Compose:
		// Δ(L∘R) = ΔL∘R ∪ L∘ΔR over the advanced child outputs.
		lOut, rOut := vs.nodeOut(n.kids[0]), vs.nodeOut(n.kids[1])
		d = vs.newRel()
		for _, pair := range [2][2]*Relation{{kd[0], rOut}, {lOut, kd[1]}} {
			if pair[0].Len() == 0 || pair[1].Len() == 0 {
				continue
			}
			c, cerr := vs.ex.compose(pair[0], pair[1])
			if cerr != nil {
				return nil, cerr
			}
			for i := range c.rows {
				if n.out.addRow(c.rows[i]) {
					vs.ex.Stats.TuplesOut++
					d.addRow(c.rows[i])
				}
			}
		}
	case ra.UnionAll:
		d = vs.newRel()
		for _, k := range kd {
			for i := range k.rows {
				if n.out.addRow(k.rows[i]) {
					vs.ex.Stats.TuplesOut++
					d.addRow(k.rows[i])
				}
			}
		}
	case ra.Fix:
		if d, err = vs.fixDelta(n, pl, kd); err != nil {
			return nil, err
		}
	case ra.SelectVal:
		cand := vs.newRel()
		if sym, ok := kd[0].symOf(pl.Val); ok {
			for i := range kd[0].rows {
				if kd[0].rows[i].v == sym {
					cand.addRow(kd[0].rows[i])
				}
			}
		}
		d = vs.foldInto(n.out, cand)
	case ra.SelectRoot:
		cand := vs.newRel()
		for i := range kd[0].rows {
			if kd[0].rows[i].f == 0 {
				cand.addRow(kd[0].rows[i])
			}
		}
		d = vs.foldInto(n.out, cand)
	case ra.Semijoin:
		// ΔL against all of R, plus all of L against ΔR's new witnesses:
		// an old L row can newly pass when a fresh row gives its T a first
		// witness in π_F(R).
		lOut, rOut := vs.nodeOut(n.kids[0]), vs.nodeOut(n.kids[1])
		vs.ex.Stats.Joins++
		cand := vs.newRel()
		wit := rOut.fIndex()
		for i := range kd[0].rows {
			if wit.contains(kd[0].rows[i].t) {
				cand.addRow(kd[0].rows[i])
			}
		}
		if kd[1].Len() > 0 {
			lIdx := lOut.tIndex()
			seen := map[int32]struct{}{}
			for i := range kd[1].rows {
				f := kd[1].rows[i].f
				if _, dup := seen[f]; dup {
					continue
				}
				seen[f] = struct{}{}
				snap, over := lIdx.lookup(f)
				for _, part := range [2][]int32{snap, over} {
					for _, pos := range part {
						cand.addRow(lOut.rows[pos])
					}
				}
			}
		}
		d = vs.foldInto(n.out, cand)
	case ra.RootSeed:
		d = vs.newRel()
	case ra.TypeFilter:
		vs.ex.Stats.Joins++
		typed := vs.db.Rel(pl.Rel).tIndex()
		cand := vs.newRel()
		for i := range kd[0].rows {
			w := kd[0].rows[i]
			col := w.t
			if pl.OnF {
				col = w.f
			}
			if typed.contains(col) {
				cand.addRow(w)
			}
		}
		d = vs.foldInto(n.out, cand)
	case ra.DescScan:
		if d, err = vs.descDelta(n, pl, kd, bd); err != nil {
			return nil, err
		}
	default:
		return nil, ErrNonIncremental
	}
	n.delta = d
	n.round = vs.round
	return d, nil
}

// fixDelta advances Φ(R) under an insert with delta-seeded semi-naive
// rounds: the new seed edges (prefixed by the already-known closure) and the
// newly admitted constraint nodes form the initial frontier, then the
// executor's fixExpand kernel iterates exactly as a from-scratch run would —
// but starting from a frontier proportional to the update, not the seed.
func (vs *ViewState) fixDelta(n *viewNode, pl ra.Fix, kd []*Relation) (*Relation, error) {
	ex := vs.ex
	seedOut := vs.nodeOut(n.kids[0])
	seedDelta := kd[0]
	var startDelta, endDelta *Relation
	ki := 1
	if pl.Start != nil {
		startDelta = kd[ki]
		ki++
	}
	if pl.End != nil {
		endDelta = kd[ki]
	}
	startIdx, endIdx := vs.fixIndexes(n, pl)
	// O is the closure the rounds advance: the aux relation when both
	// constraints are pushed (end filtering is projected afterwards).
	O := n.out
	if startIdx != nil && endIdx != nil {
		O = n.aux
	}
	ex.Stats.LFPs++
	var frontier, all []row
	collect := func(w row) {
		if O.addRow(w) {
			ex.Stats.TuplesOut++
			frontier = append(frontier, w)
			all = append(all, w)
		}
	}
	switch {
	case startIdx != nil:
		// New edges, prefixed by every known start-rooted path reaching
		// their F (the first-new-edge decomposition), plus the full
		// expansion frontier of newly admitted start nodes.
		for i := range seedDelta.rows {
			d := seedDelta.rows[i]
			if startIdx.contains(d.f) {
				collect(d)
			}
			snap, over := O.tIndex().lookup(d.f)
			for _, part := range [2][]int32{snap, over} {
				for _, pos := range part {
					o := O.rows[pos]
					collect(row{f: o.f, t: d.t, v: d.v})
				}
			}
		}
		if startDelta != nil && startDelta.Len() > 0 {
			sIdx := seedOut.fIndex()
			seen := map[int32]struct{}{}
			for i := range startDelta.rows {
				s := startDelta.rows[i].t
				if _, dup := seen[s]; dup {
					continue
				}
				seen[s] = struct{}{}
				snap, over := sIdx.lookup(s)
				for _, part := range [2][]int32{snap, over} {
					for _, pos := range part {
						collect(seedOut.rows[pos])
					}
				}
			}
		}
	case endIdx != nil:
		// Backward: new edges suffixed by known end-reaching paths from
		// their T, plus seed edges reaching newly admitted end nodes.
		for i := range seedDelta.rows {
			d := seedDelta.rows[i]
			if endIdx.contains(d.t) {
				collect(d)
			}
			snap, over := O.fIndex().lookup(d.t)
			for _, part := range [2][]int32{snap, over} {
				for _, pos := range part {
					o := O.rows[pos]
					collect(row{f: d.f, t: o.t, v: o.v})
				}
			}
		}
		if endDelta != nil && endDelta.Len() > 0 {
			sIdx := seedOut.tIndex()
			seen := map[int32]struct{}{}
			for i := range endDelta.rows {
				e := endDelta.rows[i].f
				if _, dup := seen[e]; dup {
					continue
				}
				seen[e] = struct{}{}
				snap, over := sIdx.lookup(e)
				for _, part := range [2][]int32{snap, over} {
					for _, pos := range part {
						collect(seedOut.rows[pos])
					}
				}
			}
		}
	default:
		for i := range seedDelta.rows {
			d := seedDelta.rows[i]
			collect(d)
			snap, over := O.tIndex().lookup(d.f)
			for _, part := range [2][]int32{snap, over} {
				for _, pos := range part {
					o := O.rows[pos]
					collect(row{f: o.f, t: d.t, v: d.v})
				}
			}
		}
	}
	dir := fixFwd
	if startIdx == nil && endIdx != nil {
		dir = fixBwd
	}
	delta := frontier
	var next []row
	var err error
	for len(delta) > 0 {
		ex.Stats.LFPIters++
		ex.Stats.Joins++
		if next, err = ex.fixExpand(seedOut, O, delta, next[:0], dir, false, nil); err != nil {
			return nil, err
		}
		ex.Stats.Unions++
		all = append(all, next...)
		delta, next = next, delta
	}
	if startIdx != nil && endIdx != nil {
		// Project the closure delta through the end filter, and admit the
		// already-closed tuples whose T newly became an end node.
		d := vs.newRel()
		addOut := func(w row) {
			if n.out.addRow(w) {
				ex.Stats.TuplesOut++
				d.addRow(w)
			}
		}
		for _, w := range all {
			if endIdx.contains(w.t) {
				addOut(w)
			}
		}
		if endDelta != nil && endDelta.Len() > 0 {
			aIdx := n.aux.tIndex()
			seen := map[int32]struct{}{}
			for i := range endDelta.rows {
				e := endDelta.rows[i].f
				if _, dup := seen[e]; dup {
					continue
				}
				seen[e] = struct{}{}
				snap, over := aIdx.lookup(e)
				for _, part := range [2][]int32{snap, over} {
					for _, pos := range part {
						addOut(n.aux.rows[pos])
					}
				}
			}
		}
		return d, nil
	}
	d := vs.newRel()
	for _, w := range all {
		d.addRow(w)
	}
	return d, nil
}

// descDelta advances a DescScan under an insert. On the interval path the
// candidates are all update-sized: new From sources answer their typed
// descendants with one range scan, new To nodes find their typed ancestors
// by walking the parent catalog, and newly admitted constraint nodes replay
// the same two shapes.
func (vs *ViewState) descDelta(n *viewNode, pl ra.DescScan, kd []*Relation, bd *BaseDelta) (*Relation, error) {
	startIdx, endIdx := vs.descIndexes(n, pl)
	var startDelta, endDelta *Relation
	ki := 0
	if !n.useFast {
		ki = 1
	}
	if pl.Start != nil {
		startDelta = kd[ki]
		ki++
	}
	if pl.End != nil {
		endDelta = kd[ki]
	}
	d := vs.newRel()
	add := func(w row) {
		if n.out.addRow(w) {
			vs.ex.Stats.TuplesOut++
			d.addRow(w)
		}
	}
	if !n.useFast {
		alt := vs.nodeOut(n.kids[0])
		altDelta := kd[0]
		for i := range altDelta.rows {
			w := altDelta.rows[i]
			if startIdx != nil && !startIdx.contains(w.f) {
				continue
			}
			if endIdx != nil && !endIdx.contains(w.t) {
				continue
			}
			add(w)
		}
		// Old pairs newly passing a grown constraint.
		if startDelta != nil && startDelta.Len() > 0 {
			newStarts := colSet(startDelta, false)
			for i := range alt.rows {
				w := alt.rows[i]
				if _, ok := newStarts[w.f]; !ok {
					continue
				}
				if endIdx != nil && !endIdx.contains(w.t) {
					continue
				}
				add(w)
			}
		}
		if endDelta != nil && endDelta.Len() > 0 {
			newEnds := colSet(endDelta, true)
			for i := range alt.rows {
				w := alt.rows[i]
				if _, ok := newEnds[w.t]; !ok {
					continue
				}
				if startIdx != nil && !startIdx.contains(w.f) {
					continue
				}
				add(w)
			}
		}
		return d, nil
	}
	db := vs.db
	if vs.prog.DTDFP == "" || vs.prog.DTDFP != db.DTDFP || !db.HasIntervals() {
		return nil, ErrNonIncremental
	}
	fromRel, toRel := db.Rel(pl.From), db.Rel(pl.To)
	var toIdx *descIndex
	scanDown := func(x int32) error {
		if toIdx == nil {
			idx, ok := db.descIndexFor(toRel)
			if !ok {
				return ErrNonIncremental
			}
			toIdx = idx
		}
		iv, has := db.Interval(int(x))
		if !has {
			return ErrNonIncremental
		}
		vs.ex.Stats.DescScans++
		jlo, jhi := toIdx.rangeOf(iv.Begin, iv.End)
		for j := jlo; j < jhi; j++ {
			t := toIdx.rows[j].t
			if endIdx != nil && !endIdx.contains(t) {
				continue
			}
			add(row{f: x, t: t, v: toIdx.rows[j].v})
		}
		return nil
	}
	walkUp := func(t int32) {
		fIdx := fromRel.tIndex()
		for anc := int32(db.ParentOf[int(t)]); anc != 0; anc = int32(db.ParentOf[int(anc)]) {
			if !fIdx.contains(anc) {
				continue
			}
			if startIdx != nil && !startIdx.contains(anc) {
				continue
			}
			add(row{f: anc, t: t, v: vs.valSym(int(t))})
		}
	}
	for _, e := range bd.Rows[pl.From] {
		x := int32(e.T)
		if startIdx != nil && !startIdx.contains(x) {
			continue
		}
		if err := scanDown(x); err != nil {
			return nil, err
		}
	}
	for _, e := range bd.Rows[pl.To] {
		t := int32(e.T)
		if endIdx != nil && !endIdx.contains(t) {
			continue
		}
		walkUp(t)
	}
	if startDelta != nil && startDelta.Len() > 0 {
		fIdx := fromRel.tIndex()
		for s := range colSet(startDelta, false) {
			if !fIdx.contains(s) {
				continue
			}
			if err := scanDown(s); err != nil {
				return nil, err
			}
		}
	}
	if endDelta != nil && endDelta.Len() > 0 {
		tIdx := toRel.tIndex()
		for t := range colSet(endDelta, true) {
			if !tIdx.contains(t) {
				continue
			}
			walkUp(t)
		}
	}
	return d, nil
}

// colSet returns the distinct F (onF) or T values of a relation's rows.
func colSet(r *Relation, onF bool) map[int32]struct{} {
	out := make(map[int32]struct{}, len(r.rows))
	for i := range r.rows {
		if onF {
			out[r.rows[i].f] = struct{}{}
		} else {
			out[r.rows[i].t] = struct{}{}
		}
	}
	return out
}

// --- delete maintenance --------------------------------------------------

// ApplyDelete advances the view to newDB, produced by one DeleteSubtree that
// removed the subtree rooted at root (deleted lists every removed node, in
// preorder; prevDB is the epoch the delete ran against). Every
// materialization is pruned of rows touching a deleted node — via interval
// containment against the previous epoch's encoding when available, the
// explicit ID set otherwise. It returns the node IDs that left the answer,
// ascending. On error the caller must Rebuild.
func (vs *ViewState) ApplyDelete(newDB, prevDB *DB, root int, deleted []int) ([]int, error) {
	if vs.opaque || !vs.deletable {
		return nil, ErrNonIncremental
	}
	if newDB.Syms != vs.syms {
		return nil, ErrNonIncremental
	}
	dead := deadTest(prevDB, root, deleted)
	// Rows removed from the result relation must be observed before memos
	// are replaced; when the result is a stored relation the previous
	// epoch's copy still holds them.
	resNode := resolveNode(vs.result.root)
	var removedRows []row
	if base, ok := resNode.plan.(ra.Base); ok {
		prev := prevDB.Rel(base.Rel)
		for i := range prev.rows {
			if prev.isDead(i) {
				continue
			}
			w := prev.rows[i]
			if dead(w.f) || dead(w.t) {
				removedRows = append(removedRows, w)
			}
		}
	}
	vs.db = newDB
	vs.ex.DB = newDB
	vs.ex.ident = nil
	vs.round++
	for _, st := range vs.stmts {
		var walk func(n *viewNode)
		walk = func(n *viewNode) {
			for _, k := range n.kids {
				walk(k)
			}
			if n.out != nil {
				n.out = vs.pruneRel(n.out, dead, n == resNode, &removedRows)
			}
			if n.aux != nil {
				n.aux = vs.pruneRel(n.aux, dead, false, nil)
			}
		}
		walk(st.root)
	}
	var removed []int
	for _, w := range removedRows {
		c := vs.counts[w.t] - 1
		if c <= 0 {
			delete(vs.counts, w.t)
			if w.t != 0 {
				removed = append(removed, int(w.t))
			}
		} else {
			vs.counts[w.t] = c
		}
	}
	sort.Ints(removed)
	return removed, nil
}

// resolveNode follows Temp aliases to the node owning the materialization.
func resolveNode(n *viewNode) *viewNode {
	for {
		if _, ok := n.plan.(ra.Temp); !ok {
			return n
		}
		n = n.stmt.root
	}
}

// deadTest returns a membership test for the deleted subtree: interval
// containment against the pre-delete encoding when it covers the subtree
// root, the explicit ID set otherwise. The virtual root (0) is never dead.
func deadTest(prevDB *DB, root int, deleted []int) func(int32) bool {
	if prevDB != nil {
		if rootIv, ok := prevDB.Interval(root); ok {
			r32 := int32(root)
			return func(id int32) bool {
				if id == r32 {
					return true
				}
				iv, has := prevDB.Interval(int(id))
				return has && rootIv.Begin < iv.Begin && iv.Begin < rootIv.End
			}
		}
	}
	set := make(map[int32]struct{}, len(deleted))
	for _, id := range deleted {
		set[int32(id)] = struct{}{}
	}
	return func(id int32) bool {
		_, ok := set[id]
		return ok
	}
}

// pruneRel removes rows touching a deleted node. Untouched relations are
// returned as-is (keeping their indexes warm); touched ones are rebuilt
// compacted.
func (vs *ViewState) pruneRel(r *Relation, dead func(int32) bool, collect bool, removed *[]row) *Relation {
	nDead := 0
	for i := range r.rows {
		if r.isDead(i) {
			continue
		}
		w := r.rows[i]
		if dead(w.f) || dead(w.t) {
			nDead++
		}
	}
	if nDead == 0 {
		return r
	}
	out := vs.newRel()
	out.grow(r.Len() - nDead)
	for i := range r.rows {
		if r.isDead(i) {
			continue
		}
		w := r.rows[i]
		if dead(w.f) || dead(w.t) {
			if collect {
				*removed = append(*removed, w)
			}
			continue
		}
		out.addRow(w)
	}
	return out
}

// --- text updates --------------------------------------------------------

// ApplyText advances the view to newDB after one UpdateText. For text-
// immune views (no value selection anywhere in the plan) answers cannot
// change and the materializations stay valid as ID sets, so this is a
// repoint; otherwise the caller must Rebuild.
func (vs *ViewState) ApplyText(newDB *DB) error {
	if !vs.textImmune {
		return ErrNonIncremental
	}
	if !vs.opaque && newDB.Syms != vs.syms {
		return ErrNonIncremental
	}
	vs.db = newDB
	vs.ex.DB = newDB
	vs.ex.ident = nil
	return nil
}

// --- full rebuild --------------------------------------------------------

// Rebuild discards every materialization, re-evaluates the program against
// newDB from scratch and diffs the fresh answer against the maintained one.
// It returns the answer IDs that entered and left, ascending — the fallback
// path for non-incremental views and updates, equivalent to (but cheaper
// than) re-registering the view.
func (vs *ViewState) Rebuild(newDB *DB) (added, removed []int, err error) {
	old := vs.counts
	vs.db = newDB
	vs.ex.DB = newDB
	vs.ex.ident = nil
	vs.ex.env = nil
	vs.round++
	if vs.opaque || newDB.Syms != vs.syms {
		if !vs.opaque {
			// The interner changed under a tree view (not a store epoch):
			// degrade rather than mix symbol spaces.
			vs.degradeToOpaque()
		}
		if err := vs.rebuildOpaque(); err != nil {
			return nil, nil, err
		}
	} else {
		for _, st := range vs.stmts {
			var clearNode func(n *viewNode)
			clearNode = func(n *viewNode) {
				for _, k := range n.kids {
					clearNode(k)
				}
				n.out, n.aux, n.delta = nil, nil, nil
			}
			clearNode(st.root)
		}
		snap := vs.ex.Stats
		if err := vs.evalStmt(vs.result); err != nil {
			if !errors.Is(err, ErrNonIncremental) {
				return nil, nil, err
			}
			vs.degradeToOpaque()
			if err := vs.rebuildOpaque(); err != nil {
				return nil, nil, err
			}
		} else {
			vs.FullStats = addDelta(vs.FullStats, vs.ex.Stats.Minus(snap))
			vs.refreshCounts()
		}
	}
	return diffCounts(old, vs.counts)
}

// rebuildOpaque recomputes an opaque view's answer with a fresh executor.
func (vs *ViewState) rebuildOpaque() error {
	ex := &Exec{DB: vs.db, Lazy: true, Parallelism: 1}
	rel, err := ex.Run(vs.prog)
	if err != nil {
		return err
	}
	vs.FullStats = addDelta(vs.FullStats, ex.Stats)
	live := rel.rows
	if rel.nDead > 0 {
		live = make([]row, 0, rel.Len())
		for i := range rel.rows {
			if !rel.isDead(i) {
				live = append(live, rel.rows[i])
			}
		}
	}
	vs.counts = countRows(live)
	return nil
}

// diffCounts returns the answer IDs entering and leaving between two answer
// multisets, ascending, virtual root excluded.
func diffCounts(old, new map[int32]int) (added, removed []int, err error) {
	for t, c := range new {
		if c > 0 && t != 0 {
			if oc := old[t]; oc <= 0 {
				added = append(added, int(t))
			}
		}
	}
	for t, c := range old {
		if c > 0 && t != 0 {
			if nc := new[t]; nc <= 0 {
				removed = append(removed, int(t))
			}
		}
	}
	sort.Ints(added)
	sort.Ints(removed)
	return added, removed, nil
}

// addDelta accumulates b into a fieldwise (Stats has no Add method variant
// returning a value for struct fields used here).
func addDelta(a, b Stats) Stats {
	a.Joins += b.Joins
	a.Unions += b.Unions
	a.LFPs += b.LFPs
	a.LFPIters += b.LFPIters
	a.RecFixes += b.RecFixes
	a.TuplesOut += b.TuplesOut
	a.StmtsRun += b.StmtsRun
	a.Morsels += b.Morsels
	a.DescScans += b.DescScans
	return a
}
