package rdb

// Incremental view maintenance over translated programs. A ViewState
// materializes the output of every operator in a program's reachable plan
// tree and advances those materializations under document updates with one
// post-order pass per update (nodeDelta): every node takes the rows its
// operands gained or lost and hands up the rows its own output gained or lost.
// An insert seeds the closure's frontier with exactly the tuples the new edges
// admit, using the same semi-naive machinery the fixpoint executor runs
// internally; a delete removes what lost its derivation — over-delete the
// candidates, keep the ones a point probe of the advanced operands re-derives
// — so neither re-runs Φ from scratch.
//
// Maintainability is a property of the plan. Two independent classes:
//
//   - monotone: no Antijoin/Diff/RecUnion and no path tracking. An insert can
//     only add tuples and a delete only remove them, and per-operator delta
//     rules are exact for both. The store assigns fresh node IDs to inserted
//     nodes (IDs are never reused), which the insert rules rely on: an old
//     tuple can never newly enter a type relation or identity relation.
//   - text-immune: no SelectVal — answers are node-ID sets and membership
//     never depends on a V attribute, so UpdateText is a no-op.
//
// Anything outside a class falls back to full re-evaluation (Rebuild), which
// diffs the fresh answer against the maintained one so subscribers still see
// exact per-epoch deltas.
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
// maintenance applies the same kernels to the kids' deltas wherever the
// operator distributes over ∪ (see nodeDelta). Build one with
// BuildViewState against a database snapshot, then advance it epoch by epoch
// with ApplyInsert / ApplyDelete / ApplyText, or recompute with Rebuild.
type ViewState struct {
	prog *ra.Program
	ex   *Exec     // runs the operator kernels (ops.go) on ex.DB, the view's epoch
	syms *Interner // the shared interner every epoch must carry

	// opaque: no operator tree — the plan is not monotone, or could not be
	// materialized as built — so the view is maintained by Rebuild only.
	opaque     bool
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

	delta *Relation // the rows this round's update added to out, or removed from it
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
	var monotone bool
	monotone, vs.textImmune = vs.classify()
	vs.opaque = !monotone
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
	vs.stmts, vs.result = nil, nil
}

// Insertable reports whether InsertSubtree updates apply as deltas.
func (vs *ViewState) Insertable() bool { return !vs.opaque }

// Deletable reports whether DeleteSubtree updates apply as deltas: exactly
// when inserts do, the plan being monotone either way.
func (vs *ViewState) Deletable() bool { return !vs.opaque }

// TextImmune reports whether UpdateText updates are no-ops for this view.
func (vs *ViewState) TextImmune() bool { return vs.textImmune }

// IndexBuilds sums Relation.IndexBuilds over the view's materializations: the
// regression stat that maintenance carries their indexes from epoch to epoch —
// across a delete's compaction too — instead of building them again.
func (vs *ViewState) IndexBuilds() int {
	builds := 0
	vs.eachNode(func(n *viewNode) {
		for _, r := range [2]*Relation{n.out, n.aux} {
			if r != nil {
				builds += r.IndexBuilds()
			}
		}
	})
	return builds
}

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
func (vs *ViewState) classify() (monotone, textImmune bool) {
	monotone, textImmune = true, true
	seen := map[string]bool{}
	var walk func(p ra.Plan)
	walk = func(p ra.Plan) {
		switch p := p.(type) {
		case ra.Base, ra.Ident, ra.RootSeed, ra.Compose, ra.UnionAll, ra.SelectRoot, ra.TypeFilter,
			ra.IdentOf, ra.Semijoin, ra.DescScan:
		case ra.Temp:
			if pl := vs.prog.Lookup(p.Name); pl != nil && !seen[p.Name] {
				seen[p.Name] = true
				walk(pl)
			}
		case ra.Fix:
			if p.TrackPaths {
				monotone = false
			}
		case ra.SelectVal:
			textImmune = false
		case ra.Antijoin, ra.Diff, ra.RecUnion:
			monotone = false
		default:
			monotone, textImmune = false, false
		}
		for _, k := range ra.Inputs(p) {
			walk(k)
		}
	}
	walk(ra.Temp{Name: vs.prog.Result})
	return monotone, textImmune
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

// buildNode builds the node of a plan classify admitted as monotone, so every
// operator below has its Δ rules.
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
		// when it opens on the view's epoch (the executor's gate), else
		// through the fixpoint alternative subtree.
		if _, err := vs.ex.openDesc(pl); err == nil {
			n.useFast, kids = true, kids[1:]
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

// --- delta maintenance ---------------------------------------------------

// update is one transaction as the operator tree sees it: the base rows and
// node IDs an insert added (bd), or the nodes a delete removed (deleted) from
// prev, the epoch the view was at.
type update struct {
	bd      *BaseDelta
	deleted []int
	prev    *DB
}

// ApplyInsert advances the view to newDB, which must be the epoch
// immediately following the one the view is at, produced by one
// InsertSubtree described by bd. It returns the node IDs that entered the
// answer, ascending. On any error the materializations may be inconsistent
// and the caller must Rebuild.
func (vs *ViewState) ApplyInsert(newDB *DB, bd BaseDelta) ([]int, error) {
	d, err := vs.advance(newDB, &update{bd: &bd})
	if err != nil {
		return nil, err
	}
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

// ApplyDelete advances the view to newDB, which must be the epoch immediately
// following the one the view is at, produced by one DeleteSubtree of the nodes
// in deleted: the subtree under root, every node of it. The base delta is the
// rows the view's own epoch stores for those nodes, so neither prevDB, that
// same epoch, nor root is read; no interval encoding is either. It returns the
// node IDs that left the answer, ascending. On error the caller must Rebuild.
func (vs *ViewState) ApplyDelete(newDB, prevDB *DB, root int, deleted []int) ([]int, error) {
	d, err := vs.advance(newDB, &update{deleted: deleted})
	if err != nil {
		return nil, err
	}
	var removed []int
	for _, w := range d.rows {
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

// advance runs one maintenance round against newDB and returns the rows the
// result relation gained (an insert) or lost (a delete).
func (vs *ViewState) advance(newDB *DB, u *update) (*Relation, error) {
	if vs.opaque || newDB.Syms != vs.syms {
		return nil, ErrNonIncremental
	}
	u.prev, vs.ex.DB = vs.ex.DB, newDB
	vs.round++
	snap := vs.ex.Stats
	d, err := vs.nodeDelta(vs.result.root, u)
	if err != nil {
		return nil, err
	}
	vs.DeltaStats.Add(vs.ex.Stats.Minus(snap))
	return d, nil
}

// nodeDelta computes (once per round, post-order) the rows n's output gains
// under an insert or loses under a delete, and advances the materialization:
// the operands are advanced first, so every rule reads them as they are in the
// new epoch, next to what each of them gained or lost.
func (vs *ViewState) nodeDelta(n *viewNode, u *update) (*Relation, error) {
	if n.stmt != nil {
		return vs.nodeDelta(n.stmt.root, u)
	}
	if n.round == vs.round {
		return n.delta, nil
	}
	// kd holds the operands' deltas, aligned with in. A node that reads no
	// stored state of its own is quiet, and left alone, when all are empty.
	in := vs.operands(n)
	kd := make([]*Relation, len(in))
	quiet := len(n.kids) > 0 && !n.useFast
	for i, k := range n.kids {
		kdi, err := vs.nodeDelta(k, u)
		if err != nil {
			return nil, err
		}
		kd[len(in)-len(n.kids)+i] = kdi
		quiet = quiet && kdi.Len() == 0
	}
	d := vs.newRel()
	var err error
	switch {
	case quiet:
	case u.bd != nil:
		err = vs.grow(n, d, in, kd, u.bd)
	default:
		err = vs.shrink(n, d, in, kd, u)
	}
	if err != nil {
		return nil, err
	}
	for _, r := range [2]*Relation{n.out, n.aux} {
		if r != nil {
			r.foldIndexes()
		}
	}
	n.delta, n.round = d, vs.round
	return d, nil
}

// rowsAt visits the rows of r whose F (onF) or T column holds key, in
// insertion order. visit may append to r.
func (r *Relation) rowsAt(onF bool, key int32, visit func(row)) {
	snap, over := r.index(onF, true).lookup(key)
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

// colSet returns the distinct F (onF) or T values of rows.
func colSet(rows []row, onF bool) map[int32]struct{} {
	out := make(map[int32]struct{}, len(rows))
	for _, w := range rows {
		out[colKey(w, onF)] = struct{}{}
	}
	return out
}

// fixRounds runs Φ's semi-naive rounds from frontier, rows already in out,
// with the executor's fixExpand kernel: what they derive over seed is appended
// to out. frontier is consumed as scratch.
func (vs *ViewState) fixRounds(seed, out *Relation, frontier []row, dir fixDir) error {
	ex := vs.ex
	delta, next := frontier, []row(nil)
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
	return nil
}

// --- insert rules --------------------------------------------------------

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

// grow is the insert rule of n: it admits into n's materialization, and into
// d, the genuinely-new rows of its output. Operators that distribute over ∪
// reuse their kernel on the operands' deltas (distribute); hand-written rules
// remain only where an old row can newly qualify without any operand row
// carrying it in: a Semijoin's new witnesses, a Fix frontier, a DescScan's
// ancestors and grown constraints.
func (vs *ViewState) grow(n *viewNode, d *Relation, in, kd []*Relation, bd *BaseDelta) error {
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
		return vs.distribute(n, d, kd)
	case ra.Compose:
		// Bilinear: Δ(L∘R) = ΔL∘R ∪ L∘ΔR over the advanced operands.
		for i := range in {
			if kd[i].Len() > 0 {
				if err := vs.distribute(n, d, withDelta(in, kd, i)); err != nil {
					return err
				}
			}
		}
	case ra.Semijoin:
		// Distributive in L: ΔL ⋉ R. Not in R — an old L row newly passes
		// when a fresh R row gives its T a first witness in π_F(R) — so all
		// of L is probed with ΔR's witnesses.
		if err := vs.distribute(n, d, withDelta(in, kd, 0)); err != nil {
			return err
		}
		for _, w := range kd[1].rows {
			in[0].rowsAt(false, w.f, func(l row) { vs.admit(n, d, l) })
		}
	case ra.Fix:
		return vs.fixGrow(n, pl, d, in, kd)
	case ra.DescScan:
		return vs.descGrow(n, pl, d, in, kd, bd)
	default:
		return ErrNonIncremental
	}
	return nil
}

// fixGrow advances Φ(R) under an insert with delta-seeded semi-naive
// rounds: the new seed edges (joined to the already-known closure) and the
// seed edges of newly admitted constraint nodes form the initial frontier,
// then the executor's fixExpand kernel iterates exactly as a from-scratch run
// would — but starting from a frontier proportional to the update, not the
// seed.
func (vs *ViewState) fixGrow(n *viewNode, pl ra.Fix, d *Relation, in, kd []*Relation) error {
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
	known := len(O.rows)
	var frontier []row
	collect := func(w row) {
		if O.addRow(w) {
			ex.Stats.TuplesOut++
			frontier = append(frontier, w)
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
	if err := vs.fixRounds(seed, O, frontier, dir); err != nil {
		return err
	}
	grown := O.rows[known:]
	if !filtered {
		for _, w := range grown {
			d.addRow(w)
		}
		return nil
	}
	// Project the closure delta through the end filter, and admit the
	// already-closed tuples whose T newly became an end node.
	endIdx := end.fIndex()
	for _, w := range grown {
		if endIdx.contains(w.t) {
			vs.admit(n, d, w)
		}
	}
	for _, g := range endDelta.rows {
		n.aux.rowsAt(false, g.f, func(w row) { vs.admit(n, d, w) })
	}
	return nil
}

// descGrow advances a DescScan under an insert. On the interval path the
// candidates are all update-sized: new From sources answer their typed
// descendants with one range scan, new To nodes find their typed ancestors
// by walking the parent catalog, and newly admitted constraint nodes replay
// the same two shapes.
func (vs *ViewState) descGrow(n *viewNode, pl ra.DescScan, d *Relation, in, kd []*Relation, bd *BaseDelta) error {
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
	db, st := vs.ex.DB, vs.ex.DB.encoding()
	if !db.fingerprintMatches(vs.prog) || st == nil {
		return ErrNonIncremental
	}
	fromRel, toRel := db.Rel(pl.From), db.Rel(pl.To)
	var toIdx *descIndex
	scanDown := func(x int32) error {
		if toIdx == nil {
			idx, err := st.indexFor(toRel)
			if err != nil {
				return ErrNonIncremental
			}
			toIdx = idx
		}
		iv, has := st.tab.get(int(x))
		if !has {
			return ErrNonIncremental
		}
		vs.ex.Stats.DescScans++
		lo, hi := toIdx.rangeOf(0, iv.Begin, iv.End)
		for _, to := range toIdx.rows[lo:hi] {
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

// --- delete rules --------------------------------------------------------

// retract removes the pair of w from n's materialization; a row that was
// there is counted and joins d, the delta n propagates, as it was stored. The
// row is tombstoned: shrink compacts the materialization before anything reads
// it.
func (vs *ViewState) retract(n *viewNode, d *Relation, w row) {
	if w, ok := n.out.take(w.f, w.t); ok {
		vs.ex.Stats.TuplesOut++
		d.addRow(w)
	}
}

// lostKeys visits the distinct F (onF) or T values of gone, the rows an
// operand lost, that no row of now, the operand as it is, still holds in that
// column: the nodes whose last witness the delete took. A constraint the plan
// does not carry (nil) lost none.
func lostKeys(gone, now *Relation, onF bool, visit func(key int32)) {
	if gone == nil || gone.Len() == 0 {
		return
	}
	idx := now.index(onF, true)
	for k := range colSet(gone.rows, onF) {
		if !idx.contains(k) {
			visit(k)
		}
	}
}

// joins reports whether l∘r derives (f, t) — some m has (f, m) in l and
// (m, t) in r — by walking the shorter of the two index buckets and probing
// the other relation's membership (its pair set, or a stored relation's T
// index).
func joins(l, r *Relation, f, t int32) bool {
	ls, lo := l.fIndex().lookup(f)
	rs, ro := r.tIndex().lookup(t)
	if len(ls)+len(lo) <= len(rs)+len(ro) {
		for _, part := range [2][]int32{ls, lo} {
			for _, pos := range part {
				if r.hasPair(packPair(l.rows[pos].t, t)) {
					return true
				}
			}
		}
		return false
	}
	for _, part := range [2][]int32{rs, ro} {
		for _, pos := range part {
			if l.hasPair(packPair(f, r.rows[pos].f)) {
				return true
			}
		}
	}
	return false
}

// shrink is the delete rule of n: it retracts from n's materialization, and
// hands up in d, the rows of its output that lost their last derivation. The
// candidates are the rows some derivation of which used a removed operand row
// — found, as under an insert, by the operator's kernel on the operands'
// deltas, or read off an index of the materialization — and a candidate stays
// if a point probe of the advanced operands derives it again. Where the output
// is a subset of one operand, or a removed key was necessary to every row
// anchored at it, a candidate has nothing to be re-derived from.
func (vs *ViewState) shrink(n *viewNode, d *Relation, in, kd []*Relation, u *update) error {
	drop := func(w row) { vs.retract(n, d, w) }
	switch pl := n.plan.(type) {
	case ra.Base:
		// The stored rows of the removed nodes, out of the epoch that had them.
		if prev, ok := u.prev.Rels[pl.Rel]; ok {
			for _, id := range u.deleted {
				prev.rowsAt(false, int32(id), func(w row) { d.addRow(w) })
			}
		}
		return nil
	case ra.Ident:
		for _, id := range u.deleted {
			drop(row{f: int32(id), t: int32(id)})
		}
	case ra.RootSeed:
	case ra.SelectVal, ra.SelectRoot, ra.TypeFilter:
		for _, w := range kd[0].rows {
			drop(w)
		}
	case ra.IdentOf:
		lostKeys(kd[0], in[0], pl.OnF, func(k int32) { drop(row{f: k, t: k}) })
	case ra.UnionAll:
		for _, gone := range kd {
			for _, w := range gone.rows {
				held := func(kid *Relation) bool { return kid.hasPair(packPair(w.f, w.t)) }
				if !slices.ContainsFunc(in, held) {
					drop(w)
				}
			}
		}
	case ra.Compose:
		// Bilinear, and R_old = R′ ∪ Δ⁻R: every pair that lost a derivation is
		// in Δ⁻L∘R′ ∪ L′∘Δ⁻R ∪ Δ⁻L∘Δ⁻R, and goes unless L′∘R′ still has it.
		for _, ops := range [3][2]*Relation{{kd[0], in[1]}, {in[0], kd[1]}, {kd[0], kd[1]}} {
			if ops[0].Len() == 0 || ops[1].Len() == 0 {
				continue
			}
			cand, err := vs.ex.apply(pl, ops[:])
			if err != nil {
				return err
			}
			for _, w := range cand.rows {
				if !joins(in[0], in[1], w.f, w.t) {
					drop(w)
				}
			}
		}
	case ra.Semijoin:
		for _, w := range kd[0].rows {
			drop(w)
		}
		lostKeys(kd[1], in[1], true, func(k int32) { n.out.rowsAt(false, k, drop) })
	case ra.Fix:
		if err := vs.fixShrink(n, pl, d, in, kd); err != nil {
			return err
		}
	case ra.DescScan:
		if n.useFast {
			// The kernel pairs stored nodes: the pairs at a removed node go,
			// and the materialization's own indexes say which those are.
			for _, id := range u.deleted {
				n.out.rowsAt(true, int32(id), drop)
				n.out.rowsAt(false, int32(id), drop)
			}
		} else {
			for _, w := range kd[0].rows {
				drop(w)
			}
		}
		start, end := constraintOperands(pl.Start, pl.End, in[1:])
		startGone, endGone := constraintOperands(pl.Start, pl.End, kd[1:])
		lostKeys(startGone, start, false, func(s int32) { n.out.rowsAt(true, s, drop) })
		lostKeys(endGone, end, true, func(g int32) { n.out.rowsAt(false, g, drop) })
	default:
		return ErrNonIncremental
	}
	n.out.Compact()
	return nil
}

// fixShrink retracts from Φ(R) what a delete took, by delete and re-derive —
// the one operator where a row can have derivations no operand delta names.
// Every closure row with a derivation over a removed seed edge is over-deleted:
// the first-removed-edge decomposition of fixGrow finds the rows one step
// past such an edge and the executor's fixExpand follows them through the
// surviving seed. A row anchored at a lost gate node goes with it. Then a row
// comes back if the surviving seed and closure still derive it in one step,
// and fixExpand closes over what came back; on a tree-shaped seed nothing does.
func (vs *ViewState) fixShrink(n *viewNode, pl ra.Fix, d *Relation, in, kd []*Relation) error {
	seed, seedGone := in[0], kd[0]
	start, end := constraintOperands(pl.Start, pl.End, in[1:])
	startGone, endGone := constraintOperands(pl.Start, pl.End, kd[1:])
	dir, gate := fixGate(start, end)
	fwd := dir == fixFwd
	gateNow, gateGone := start, startGone
	if !fwd {
		gateNow, gateGone = end, endGone
	}
	filtered := start != nil && end != nil
	O := n.out
	if filtered {
		O = n.aux
	}
	vs.ex.Stats.LFPs++
	over := vs.newRel()
	var frontier []row
	mark := func(w row) {
		if over.addRow(w) {
			frontier = append(frontier, w)
		}
	}
	for _, e := range seedGone.rows {
		if O.hasPair(packPair(e.f, e.t)) {
			mark(e)
		}
		O.rowsAt(!fwd, dir.anchor(e), func(o row) {
			if fwd {
				mark(row{f: o.f, t: e.t})
			} else {
				mark(row{f: e.f, t: o.t})
			}
		})
	}
	if err := vs.fixRounds(seed, over, frontier, dir); err != nil {
		return err
	}
	lostKeys(gateGone, gateNow, !fwd, func(g int32) {
		O.rowsAt(fwd, g, func(o row) { over.addRow(o) })
	})
	taken := make([]row, 0, over.Len())
	for _, w := range over.rows {
		if w, ok := O.take(w.f, w.t); ok {
			taken = append(taken, w)
		}
	}
	O.Compact()
	frontier = frontier[:0]
	for _, w := range taken {
		direct := seed.hasPair(packPair(w.f, w.t)) && (gate == nil || gate.contains(dir.anchor(w)))
		if direct || (fwd && joins(O, seed, w.f, w.t)) || (!fwd && joins(seed, O, w.f, w.t)) {
			O.addRow(w)
			frontier = append(frontier, w)
		}
	}
	if err := vs.fixRounds(seed, O, frontier, dir); err != nil {
		return err
	}
	for _, w := range taken {
		switch {
		case O.hasPair(packPair(w.f, w.t)): // re-derived
		case filtered:
			vs.retract(n, d, w)
		default:
			vs.ex.Stats.TuplesOut++
			d.addRow(w)
		}
	}
	if filtered {
		lostKeys(endGone, end, true, func(g int32) {
			n.out.rowsAt(false, g, func(w row) { vs.retract(n, d, w) })
		})
	}
	return nil
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
