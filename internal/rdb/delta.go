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
	"slices"
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

// ViewState is the push driver of the operator kernels (ops.go): a standing
// query's materialized operator tree plus its maintained answer multiset.
// Full materialization applies each operator's kernel to its kids' outputs;
// insert maintenance applies the same kernels to the kids' deltas wherever
// the operator distributes over ∪ (see nodeDelta). Build one with
// BuildViewState against a database snapshot, then advance it epoch by epoch
// with ApplyInsert / ApplyDelete / ApplyText, or recompute with Rebuild.
type ViewState struct {
	prog *ra.Program
	ex   *Exec     // runs the operator kernels (ops.go) on ex.DB, the view's epoch
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
	kids []*viewNode // ra.Inputs order (minus Alt under useFast)
	stmt *viewStmt   // Temp target

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
		ex:     &Exec{DB: db, prog: prog, Parallelism: 1},
		syms:   db.Syms,
		stmts:  map[string]*viewStmt{},
		counts: map[int32]int{},
	}
	vs.classify()
	vs.opaque = !vs.insertable
	if !vs.opaque {
		var err error
		if vs.result, err = vs.buildStmt(prog.Result); err != nil {
			return nil, err
		}
	}
	if err := vs.refresh(); err != nil {
		return nil, err
	}
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
	var walk func(p ra.Plan)
	walk = func(p ra.Plan) {
		switch p := p.(type) {
		case ra.Base, ra.Ident, ra.RootSeed, ra.Compose, ra.UnionAll, ra.SelectRoot, ra.TypeFilter:
		case ra.Temp:
			if pl := vs.prog.Lookup(p.Name); pl != nil && !seen[p.Name] {
				seen[p.Name] = true
				walk(pl)
			}
		case ra.IdentOf:
			if p.OnF {
				// (f, f) rows keep an existential witness on the child's F
				// column; the witness row can die (descendant side deleted)
				// while f stays alive. The OnT projection is safe: t alive
				// implies its ancestor-side f is alive too.
				vs.deletable = false
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
		case ra.DescScan:
			if p.End != nil {
				vs.deletable = false // see ra.Fix: π_F(end) witness loss
			}
		case ra.SelectVal:
			vs.textImmune = false
		case ra.Semijoin:
			vs.deletable = false
		case ra.Antijoin, ra.Diff, ra.RecUnion:
			vs.insertable, vs.deletable = false, false
		default:
			vs.insertable, vs.deletable, vs.textImmune = false, false, false
		}
		for _, k := range ra.Inputs(p) {
			walk(k)
		}
	}
	walk(ra.Temp{Name: vs.prog.Result})
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

// buildNode builds the node of a plan classify admitted as insertable, so
// every operator below has a Δ rule.
func (vs *ViewState) buildNode(pl ra.Plan) (*viewNode, error) {
	n := &viewNode{plan: pl}
	kids := ra.Inputs(pl)
	switch pl := pl.(type) {
	case ra.Temp:
		st, err := vs.buildStmt(pl.Name)
		n.stmt = st
		return n, err
	case ra.DescScan:
		// Decide the maintenance strategy now: through the interval kernel
		// when the database carries a matching encoding, else through the
		// fixpoint alternative subtree.
		if n.useFast = vs.descFastUsable(pl); n.useFast {
			kids = kids[1:]
		}
	}
	for _, p := range kids {
		k, err := vs.buildNode(p)
		if err != nil {
			return nil, err
		}
		n.kids = append(n.kids, k)
	}
	return n, nil
}

// descFastUsable mirrors descScanFast's gate: a matching DTD fingerprint, a
// valid encoding, and a buildable begin-sorted index over the To relation.
func (vs *ViewState) descFastUsable(pl ra.DescScan) bool {
	db := vs.ex.DB
	if !db.fingerprintMatches(vs.prog) {
		return false
	}
	_, ok := db.descIndexFor(db.Rel(pl.To))
	return ok
}

// --- full evaluation -----------------------------------------------------

func (vs *ViewState) newRel() *Relation { return newRelation("", vs.syms) }

// nodeOut resolves a node's current output relation (live stored relation
// for Base, the statement root's output for Temp).
func (vs *ViewState) nodeOut(n *viewNode) *Relation {
	switch pl := n.plan.(type) {
	case ra.Base:
		return vs.ex.DB.Rel(pl.Rel)
	case ra.Temp:
		return vs.nodeOut(n.stmt.root)
	}
	return n.out
}

// operands returns the kids' current outputs in ra.Inputs order. A DescScan
// maintained through the interval kernel has no Alt kid; its slot stays nil,
// which is how apply is asked for the kernel.
func (vs *ViewState) operands(n *viewNode) []*Relation {
	in := make([]*Relation, 0, len(n.kids)+1)
	if n.useFast {
		in = append(in, nil)
	}
	for _, k := range n.kids {
		in = append(in, vs.nodeOut(k))
	}
	return in
}

// eachNode visits every operator node of the tree, kids first.
func (vs *ViewState) eachNode(visit func(n *viewNode)) {
	var walk func(n *viewNode)
	walk = func(n *viewNode) {
		for _, k := range n.kids {
			walk(k)
		}
		visit(n)
	}
	for _, st := range vs.stmts {
		walk(st.root)
	}
}

// materialize fully evaluates n's output (post-order) against the view's epoch: the
// operator's kernel applied to the kids' outputs.
func (vs *ViewState) materialize(n *viewNode) error {
	switch n.plan.(type) {
	case ra.Base:
		return nil
	case ra.Temp:
		return vs.materialize(n.stmt.root)
	}
	if n.out != nil {
		return nil
	}
	for _, k := range n.kids {
		if err := vs.materialize(k); err != nil {
			return err
		}
	}
	in := vs.operands(n)
	var err error
	switch pl := n.plan.(type) {
	case ra.Ident:
		// A private R_id: delta rounds advance it.
		n.out = vs.ex.newIdent()
	case ra.Fix:
		if pl.Start != nil && pl.End != nil {
			// Keep the unfiltered start-restricted closure as aux — what
			// delta rounds advance — and project it through the end filter.
			// Without its End the same Φ is exactly that closure, and has no
			// end nodes to prune its frontier against.
			pl.End = nil
			if n.aux, err = vs.ex.apply(pl, in[:2]); err == nil {
				n.out = vs.ex.fixEndFilter(n.aux, in[2], false)
			}
		} else {
			n.out, err = vs.ex.apply(pl, in)
		}
	default:
		n.out, err = vs.ex.apply(n.plan, in)
	}
	if errors.Is(err, errNoDescKernel) {
		// The kernel chosen at build time bailed (a node the encoding cannot
		// place): the tree cannot be maintained as built.
		return ErrNonIncremental
	}
	if err == nil && slices.Contains(in, n.out) {
		// A kernel may hand back an operand unchanged (a DescScan over its
		// Alt with no constraint to apply); the node advances its own copy.
		n.out = n.out.Clone()
	}
	return err
}

// refresh (re)computes the whole view against its epoch: bottom-up through the
// operator tree when there is one — degrading to opaque if it cannot be
// materialized as built — and by a plain execution otherwise.
func (vs *ViewState) refresh() error {
	if !vs.opaque {
		snap := vs.ex.Stats
		err := vs.materialize(vs.result.root)
		if err == nil {
			vs.FullStats.Add(vs.ex.Stats.Minus(snap))
			vs.counts = countRows(vs.nodeOut(vs.result.root).rows)
			return nil
		}
		if !errors.Is(err, ErrNonIncremental) {
			return err
		}
		vs.degradeToOpaque()
	}
	ex := NewExec(vs.ex.DB)
	rel, err := ex.Run(vs.prog)
	if err != nil {
		return err
	}
	vs.FullStats.Add(ex.Stats)
	vs.counts = countRows(rel.rows)
	return nil
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
	vs.ex.DB = newDB
	vs.round++
	snap := vs.ex.Stats
	d, err := vs.nodeDelta(vs.result.root, &bd)
	if err != nil {
		return nil, err
	}
	vs.DeltaStats.Add(vs.ex.Stats.Minus(snap))
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

// admit adds w to n's materialization; a genuinely new row is counted and
// joins d, the delta n propagates.
func (vs *ViewState) admit(n *viewNode, d *Relation, w row) {
	if n.out.addRow(w) {
		vs.ex.Stats.TuplesOut++
		d.addRow(w)
	}
}

// distribute is the Δ rule of an operator in an operand it distributes over
// ∪ in — op(A ∪ ΔA, B) = op(A, B) ∪ op(ΔA, B) — which needs no code of its
// own: the operator's kernel is applied to ops, the node's operands with that
// operand replaced by its delta (for an operator linear in all its operands
// at once, every one of them), and the result admitted into n.
func (vs *ViewState) distribute(n *viewNode, d *Relation, ops []*Relation) error {
	cand, err := vs.ex.apply(n.plan, ops)
	if err != nil {
		return err
	}
	for _, w := range cand.rows {
		vs.admit(n, d, w)
	}
	return nil
}

// withDelta returns the operand list in with operand i replaced by its delta.
func withDelta(in, kd []*Relation, i int) []*Relation {
	ops := slices.Clone(in)
	ops[i] = kd[i]
	return ops
}

// rowsAt visits the rows of r whose F (onF) or T column holds key, in
// insertion order. visit may append to r.
func (r *Relation) rowsAt(onF bool, key int32, visit func(row)) {
	idx := r.tIndex()
	if onF {
		idx = r.fIndex()
	}
	snap, over := idx.lookup(key)
	for _, part := range [2][]int32{snap, over} {
		for _, pos := range part {
			visit(r.rows[pos])
		}
	}
}

// deltaRows are the rows of an operand's delta; an operand the plan does not
// carry (nil) has none.
func deltaRows(d *Relation) []row {
	if d == nil {
		return nil
	}
	return d.rows
}

// nodeDelta computes (once per round, post-order) the genuinely-new rows of
// n's output under the insert and advances the materialization. Operators
// that distribute over ∪ reuse their kernel on the operands' deltas
// (distribute); hand-written rules remain only where an old row can newly
// qualify without any operand row carrying it in: a Semijoin's new
// witnesses, a Fix frontier, a DescScan's ancestors and grown constraints.
func (vs *ViewState) nodeDelta(n *viewNode, bd *BaseDelta) (*Relation, error) {
	if n.stmt != nil {
		return vs.nodeDelta(n.stmt.root, bd)
	}
	if n.round == vs.round {
		return n.delta, nil
	}
	// kd holds the operands' deltas, aligned with in.
	in := vs.operands(n)
	kd := make([]*Relation, len(in))
	for i, k := range n.kids {
		kdi, err := vs.nodeDelta(k, bd)
		if err != nil {
			return nil, err
		}
		kd[len(in)-len(n.kids)+i] = kdi
	}
	d := vs.newRel()
	var err error
	switch pl := n.plan.(type) {
	case ra.Base:
		for _, e := range bd.Rows[pl.Rel] {
			d.Add(e.F, e.T, e.V)
		}
	case ra.Ident:
		for _, id := range bd.NewIDs {
			vs.admit(n, d, row{f: int32(id), t: int32(id), v: vs.ex.DB.ValSym(id)})
		}
	case ra.RootSeed:
	case ra.IdentOf, ra.SelectVal, ra.SelectRoot, ra.TypeFilter, ra.UnionAll:
		// Linear in every operand at once: Δop(A, …) = op(ΔA, …).
		err = vs.distribute(n, d, kd)
	case ra.Compose:
		// Bilinear: Δ(L∘R) = ΔL∘R ∪ L∘ΔR over the advanced operands.
		for i := range in {
			if err == nil && kd[i].Len() > 0 {
				err = vs.distribute(n, d, withDelta(in, kd, i))
			}
		}
	case ra.Semijoin:
		// Distributive in L: ΔL ⋉ R. Not in R — an old L row newly passes
		// when a fresh R row gives its T a first witness in π_F(R) — so all
		// of L is probed with ΔR's witnesses.
		if err = vs.distribute(n, d, withDelta(in, kd, 0)); err == nil {
			for _, w := range kd[1].rows {
				in[0].rowsAt(false, w.f, func(l row) { vs.admit(n, d, l) })
			}
		}
	case ra.Fix:
		err = vs.fixDelta(n, pl, d, in, kd)
	case ra.DescScan:
		err = vs.descDelta(n, pl, d, in, kd, bd)
	default:
		err = ErrNonIncremental
	}
	if err != nil {
		return nil, err
	}
	n.delta = d
	n.round = vs.round
	return d, nil
}

// fixDelta advances Φ(R) under an insert with delta-seeded semi-naive
// rounds: the new seed edges (joined to the already-known closure) and the
// seed edges of newly admitted constraint nodes form the initial frontier,
// then the executor's fixExpand kernel iterates exactly as a from-scratch run
// would — but starting from a frontier proportional to the update, not the
// seed.
func (vs *ViewState) fixDelta(n *viewNode, pl ra.Fix, d *Relation, in, kd []*Relation) error {
	ex := vs.ex
	seed, seedDelta := in[0], kd[0]
	start, end := constraintOperands(pl.Start, pl.End, in[1:])
	startDelta, endDelta := constraintOperands(pl.Start, pl.End, kd[1:])
	dir, gate := fixGate(start, end)
	gateDelta := startDelta
	if dir == fixBwd {
		gateDelta = endDelta
	}
	// O is the closure the rounds advance: the aux relation when both
	// constraints are pushed (end filtering is projected afterwards).
	filtered := start != nil && end != nil
	O := n.out
	if filtered {
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
	// The first-new-edge decomposition. Running forward, a new edge enters
	// the closure if its F passes the gate, and every known path reaching its
	// F extends over it; running backward the same holds at its T, with the
	// known paths leaving it.
	for _, e := range seedDelta.rows {
		if gate == nil || gate.contains(dir.anchor(e)) {
			collect(e)
		}
		O.rowsAt(dir == fixBwd, dir.anchor(e), func(o row) {
			if dir == fixFwd {
				collect(row{f: o.f, t: e.t, v: e.v})
			} else {
				collect(row{f: e.f, t: o.t, v: o.v})
			}
		})
	}
	// A newly admitted gate node brings in the seed edges anchored at it.
	for _, g := range deltaRows(gateDelta) {
		if dir == fixFwd {
			seed.rowsAt(true, g.t, collect)
		} else {
			seed.rowsAt(false, g.f, collect)
		}
	}
	delta := frontier
	var next []row
	var err error
	for len(delta) > 0 {
		ex.Stats.LFPIters++
		ex.Stats.Joins++
		if next, err = ex.fixExpand(seed, O, delta, next[:0], dir, false, nil); err != nil {
			return err
		}
		ex.Stats.Unions++
		all = append(all, next...)
		delta, next = next, delta
	}
	if !filtered {
		for _, w := range all {
			d.addRow(w)
		}
		return nil
	}
	// Project the closure delta through the end filter, and admit the
	// already-closed tuples whose T newly became an end node.
	endIdx := end.fIndex()
	for _, w := range all {
		if endIdx.contains(w.t) {
			vs.admit(n, d, w)
		}
	}
	for _, g := range endDelta.rows {
		n.aux.rowsAt(false, g.f, func(w row) { vs.admit(n, d, w) })
	}
	return nil
}

// descDelta advances a DescScan under an insert. On the interval path the
// candidates are all update-sized: new From sources answer their typed
// descendants with one range scan, new To nodes find their typed ancestors
// by walking the parent catalog, and newly admitted constraint nodes replay
// the same two shapes.
func (vs *ViewState) descDelta(n *viewNode, pl ra.DescScan, d *Relation, in, kd []*Relation, bd *BaseDelta) error {
	var startIdx, endIdx *colIndex
	start, end := constraintOperands(pl.Start, pl.End, in[1:])
	startDelta, endDelta := constraintOperands(pl.Start, pl.End, kd[1:])
	if start != nil {
		startIdx = start.tIndex()
	}
	if end != nil {
		endIdx = end.fIndex()
	}
	if !n.useFast {
		// The constraint filter distributes over ∪ in Alt; old pairs newly
		// passing a grown constraint are probed out of Alt by the new nodes.
		if err := vs.distribute(n, d, withDelta(in, kd, 0)); err != nil {
			return err
		}
		alt := in[0]
		for _, g := range deltaRows(startDelta) {
			alt.rowsAt(true, g.t, func(w row) {
				if endIdx == nil || endIdx.contains(w.t) {
					vs.admit(n, d, w)
				}
			})
		}
		for _, g := range deltaRows(endDelta) {
			alt.rowsAt(false, g.f, func(w row) {
				if startIdx == nil || startIdx.contains(w.f) {
					vs.admit(n, d, w)
				}
			})
		}
		return nil
	}
	db := vs.ex.DB
	if !db.fingerprintMatches(vs.prog) || !db.HasIntervals() {
		return ErrNonIncremental
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
			to := toIdx.rows[j]
			if endIdx == nil || endIdx.contains(to.t) {
				vs.admit(n, d, row{f: x, t: to.t, v: to.v})
			}
		}
		return nil
	}
	walkUp := func(t int32) {
		fIdx := fromRel.tIndex()
		for anc := int32(db.Parent(int(t))); anc != 0; anc = int32(db.Parent(int(anc))) {
			if fIdx.contains(anc) && (startIdx == nil || startIdx.contains(anc)) {
				vs.admit(n, d, row{f: anc, t: t, v: db.ValSym(int(t))})
			}
		}
	}
	for _, e := range bd.Rows[pl.From] {
		if x := int32(e.T); startIdx == nil || startIdx.contains(x) {
			if err := scanDown(x); err != nil {
				return err
			}
		}
	}
	for _, e := range bd.Rows[pl.To] {
		if t := int32(e.T); endIdx == nil || endIdx.contains(t) {
			walkUp(t)
		}
	}
	for s := range colSet(deltaRows(startDelta), false) {
		if fromRel.tIndex().contains(s) {
			if err := scanDown(s); err != nil {
				return err
			}
		}
	}
	for t := range colSet(deltaRows(endDelta), true) {
		if toRel.tIndex().contains(t) {
			walkUp(t)
		}
	}
	return nil
}

// colSet returns the distinct F (onF) or T values of rows.
func colSet(rows []row, onF bool) map[int32]struct{} {
	out := make(map[int32]struct{}, len(rows))
	for _, w := range rows {
		out[colKey(w, onF)] = struct{}{}
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
		for _, w := range prevDB.Rel(base.Rel).rows {
			if dead(w.f) || dead(w.t) {
				removedRows = append(removedRows, w)
			}
		}
	}
	vs.ex.DB = newDB
	vs.round++
	vs.eachNode(func(n *viewNode) {
		if n.out != nil {
			n.out = vs.pruneRel(n.out, dead, n == resNode, &removedRows)
		}
		if n.aux != nil {
			n.aux = vs.pruneRel(n.aux, dead, false, nil)
		}
	})
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
	for _, w := range r.rows {
		if dead(w.f) || dead(w.t) {
			nDead++
		}
	}
	if nDead == 0 {
		return r
	}
	out := vs.newRel()
	out.grow(r.Len() - nDead)
	for _, w := range r.rows {
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
	vs.ex.DB = newDB
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
	vs.ex.DB = newDB
	vs.round++
	if !vs.opaque && newDB.Syms != vs.syms {
		// The interner changed under a tree view (not a store epoch):
		// degrade rather than mix symbol spaces.
		vs.degradeToOpaque()
	}
	vs.eachNode(func(n *viewNode) { n.out, n.aux, n.delta = nil, nil, nil })
	if err := vs.refresh(); err != nil {
		return nil, nil, err
	}
	return diffCounts(old, vs.counts)
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
