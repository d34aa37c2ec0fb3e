package rdb

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"xpath2sql/internal/obs"
	"xpath2sql/internal/ra"
)

// The operator kernels. Every ra operator is implemented exactly once, here,
// as a function of its materialized operands; nothing in this file decides
// where an operand comes from. Two drivers resolve operands and call apply:
//
//   - Exec.eval (exec.go) pulls: it evaluates ra.Inputs recursively, memoises
//     statements, cuts stored relations to the run's document scope and draws
//     temporaries from the request arena.
//   - ViewState (delta.go) pushes: it keeps every operator's output
//     materialized, builds the tree bottom-up through apply, and advances it
//     under inserts and deletes with Δ rules — which, for an operator that
//     distributes over ∪ in an operand, are apply again with that operand
//     replaced by its delta.
//
// naive.go is deliberately not a third driver: it is the independent oracle
// the differential suites compare both against.
//
// An operand may carry tombstones — a stored relation a store's delete wrote,
// a view's materialization — so every kernel skips dead rows: in its scans,
// among the positions an index probe hands back (those of the probed
// relation), each against a local copy of the relation's bitmap (tombs), and
// in key membership (colIndex.contains).

// errNoDescKernel reports that a DescScan asked for the interval kernel
// (no Alt operand) on a database that cannot serve it. The executor recovers
// by resolving Alt and filtering it; a view, which chose the kernel when it
// was built, gives up incremental maintenance.
var errNoDescKernel = errors.New("rdb: interval kernel unusable for this descendant scan")

// apply evaluates one operator over its materialized operands, given in
// ra.Inputs order. Leaves that name stored state (Base, Temp, Ident) are the
// drivers' to resolve and never reach it. apply does not retain in.
func (e *Exec) apply(pl ra.Plan, in []*Relation) (*Relation, error) {
	switch pl := pl.(type) {
	case ra.RootSeed:
		out := e.newRel("")
		out.appendDistinct(row{})
		return out, nil
	case ra.IdentOf:
		child := in[0]
		out := e.newRel("")
		seen := e.idScratch(colSpan(pl.OnF, child))
		dead := child.dead
		for i, w := range child.rows {
			if dead.has(i) {
				continue
			}
			if id := colKey(w, pl.OnF); seen.add(id) {
				out.appendDistinct(row{f: id, t: id, v: e.DB.ValSym(int(id))})
			}
		}
		e.Stats.TuplesOut += out.Len()
		return out, nil
	case ra.Compose:
		return e.compose(in[0], in[1], e.distinct(pl))
	case ra.UnionAll:
		out := e.newRel("")
		distinct := e.distinct(pl)
		// Where every row holds one F — a // step's desc ∪ self under a rooted
		// context — a pair is new exactly when its T is: dedup on a set of Ts.
		var seen *seenIDs
		if _, one := oneF(in...); !distinct && len(in) > 1 && one {
			if lo, hi, n := colSpan(false, in...); spans(lo, hi, n) {
				seen = e.idScratch(lo, hi, n)
			}
		}
		for i, kr := range in {
			if i > 0 {
				e.Stats.Unions++
			}
			dead := kr.dead
			for j, w := range kr.rows {
				// The first operand is a set: only the others can repeat a pair,
				// and not when the operands' types differ.
				switch {
				case dead.has(j):
					continue
				case seen != nil:
					if !seen.add(w.t) {
						continue
					}
					out.appendFrom(kr, w)
				case i == 0 || distinct:
					out.appendFrom(kr, w)
				case !out.addFrom(kr, w):
					continue
				}
				e.Stats.TuplesOut++
			}
		}
		return out, nil
	case ra.Fix:
		return e.fix(pl, in)
	case ra.SelectVal:
		child := in[0]
		out := e.newRel("")
		if sym, ok := child.symOf(pl.Val); ok {
			dead := child.dead
			for i, w := range child.rows {
				if w.v == sym && !dead.has(i) {
					out.appendFrom(child, w)
				}
			}
		}
		e.Stats.TuplesOut += out.Len()
		return out, nil
	case ra.SelectRoot:
		child := in[0]
		out := e.newRel("")
		dead := child.dead
		for i, w := range child.rows {
			if w.f == 0 && !dead.has(i) {
				out.appendFrom(child, w)
			}
		}
		e.Stats.TuplesOut += out.Len()
		return out, nil
	case ra.Semijoin:
		return e.semijoin(in[0], in[1:], false), nil
	case ra.Antijoin:
		return e.semijoin(in[0], in[1:], true), nil
	case ra.Diff:
		l, r := in[0], in[1]
		out := e.newRel("")
		dead := l.dead
		for i, w := range l.rows {
			if !dead.has(i) && !r.hasPair(packPair(w.f, w.t)) {
				out.appendFrom(l, w)
			}
		}
		e.Stats.TuplesOut += out.Len()
		return out, nil
	case ra.TypeFilter:
		child := in[0]
		e.Stats.Joins++
		typed := e.DB.Rel(pl.Rel).tIndex()
		out := e.newRel("")
		dead := child.dead
		for i, w := range child.rows {
			if !dead.has(i) && typed.contains(colKey(w, pl.OnF)) {
				out.appendFrom(child, w)
			}
		}
		e.Stats.TuplesOut += out.Len()
		return out, nil
	case ra.RecUnion:
		return e.recUnion(pl, in)
	case ra.DescScan:
		var startIdx, endIdx *colIndex // w.f ∈ π_T(Start), w.t ∈ π_F(End)
		start, end := constraintOperands(pl.Start, pl.End, in[1:])
		if start != nil {
			startIdx = start.tIndex()
		}
		if end != nil {
			endIdx = end.fIndex()
		}
		if in[0] != nil {
			return e.descFilter(in[0], startIdx, endIdx), nil
		}
		k, err := e.openDesc(pl)
		if err != nil {
			return nil, err
		}
		return e.descScanFast(k, descUse{}, startIdx, endIdx)
	}
	return nil, fmt.Errorf("rdb: unsupported plan %T", pl)
}

// constraintOperands picks the pushed Start/End constraints of a Fix or
// DescScan out of the operands that follow its main one: ra.Inputs lists
// only the constraints the plan carries, Start before End. It serves operand
// lists and their per-operand deltas alike.
func constraintOperands(start, end ra.Plan, rest []*Relation) (s, e *Relation) {
	if start != nil {
		s, rest = rest[0], rest[1:]
	}
	if end != nil {
		e = rest[0]
	}
	return s, e
}

// compose performs the path join π_{l.F, r.T, r.V}(l ⋈_{l.T=r.F} r): the
// smaller side is scanned as the probe, the larger side's CSR index is the
// build side. Matches fold straight into the output with no candidate buffer
// and no closure state.
// Unless distinct says each output pair has one derivation (ra.Keys), the
// output is deduplicated as it is written.
func (e *Exec) compose(l, r *Relation, distinct bool) (*Relation, error) {
	e.Stats.Joins++
	out := e.newRel("")
	// The probe side is scanned, the build side resolves index positions
	// against the relation it probed.
	probeL := l.Len() <= r.Len()
	probe, build := l, r
	if !probeL {
		probe, build = r, l
	}
	// A probe of at most one row, which keys the output, scans a request
	// temporary with no index on the join column rather than sort it into one.
	if len(probe.rows) <= 1 && build.pooled && build.base == nil && build.index(probeL, false) == nil {
		for i, lt := range l.rows {
			for j, rt := range r.rows {
				if lt.t == rt.f && !l.isDead(i) && !r.isDead(j) {
					out.appendDistinct(row{f: lt.f, t: rt.t, v: rt.v})
				}
			}
		}
		e.Stats.TuplesOut += out.Len()
		return out, nil
	}
	if probeL {
		idx, pr := r.fIndex(), r.probed()
		ldead, rdead, rrows := l.dead, pr.dead, pr.rows
		for i := range l.rows {
			if ldead.has(i) {
				continue
			}
			lt := l.rows[i]
			snap, over := idx.lookup(lt.t)
			for _, part := range [2][]int32{snap, over} {
				for _, pos := range part {
					if rdead.has(int(pos)) {
						continue
					}
					rt := rrows[pos]
					if out.put(row{f: lt.f, t: rt.t, v: rt.v}, distinct) {
						e.Stats.TuplesOut++
					}
				}
			}
		}
	} else {
		idx, pl := l.tIndex(), l.probed()
		ldead, rdead, lrows := pl.dead, r.dead, pl.rows
		for i := range r.rows {
			if rdead.has(i) {
				continue
			}
			rt := r.rows[i]
			snap, over := idx.lookup(rt.f)
			for _, part := range [2][]int32{snap, over} {
				for _, pos := range part {
					if ldead.has(int(pos)) {
						continue
					}
					lt := lrows[pos]
					if out.put(row{f: lt.f, t: rt.t, v: rt.v}, distinct) {
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

// anchor is the endpoint of a tuple the iteration grows away from, and the one
// a pushed constraint tests: F running forward, T running backward.
func (d fixDir) anchor(w row) int32 {
	if d == fixBwd {
		return w.t
	}
	return w.f
}

// fixGate resolves how a constrained fixpoint iterates (§5.2): forward from
// the frontier R.F ∈ π_T(Start) whenever a start constraint is pushed — an
// end constraint then only post-filters the closure — and backward from
// R.T ∈ π_F(End) when the end constraint stands alone. gate is the index a
// tuple's anchor must be in to seed the iteration; nil admits every tuple
// (the unconstrained transitive closure).
func fixGate(start, end *Relation) (fixDir, *colIndex) {
	switch {
	case start != nil:
		return fixFwd, start.tIndex()
	case end != nil:
		return fixBwd, end.fIndex()
	}
	return fixFwd, nil
}

// fix evaluates Φ(R) (Eq. 2): the transitive closure of the seed relation,
// with optional pushed start/end constraints (§5.2). It is the closure kernel
// followed, when both constraints are pushed, by the end filter; a caller that
// wants the unfiltered start-restricted closure (a view, whose delta rounds
// advance it) applies the same plan without its End and filters separately.
func (e *Exec) fix(pl ra.Fix, in []*Relation) (*Relation, error) {
	start, end := constraintOperands(pl.Start, pl.End, in[1:])
	closure, err := e.fixClosure(pl, in[0], start, end)
	if err != nil || start == nil || end == nil {
		return closure, err
	}
	return e.fixEndFilter(closure, end), nil
}

// fixClosure is the semi-naive iteration: each round joins only the previous
// delta against the seed's CSR index. Constraint membership probes go through
// the constraint relation's column index instead of materializing per-Φ
// value-set maps, and the iteration is free of heap-escaping closures — both
// for the pooled zero-allocation serving contract (see ExecState).
func (e *Exec) fixClosure(pl ra.Fix, seed, start, end *Relation) (*Relation, error) {
	e.Stats.LFPs++
	dir, gate := fixGate(start, end)
	var prune func(t int32) bool
	if pl.Desc && start != nil && end != nil && e.IntervalMode != IntervalOff {
		prune = e.fixPrune(end)
	}

	out := e.newRel("")
	delta := e.getRowBuf()
	dead := seed.dead
	for i, w := range seed.rows {
		if !dead.has(i) && (gate == nil || gate.contains(dir.anchor(w))) && out.addRow(w) {
			e.Stats.TuplesOut++
			if prune == nil || !prune(w.t) {
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
		next = e.fixExpand(seed, out, delta, next[:0], dir, prune)
		e.Stats.Unions++
		delta, next = next, delta
	}
	e.putRowBuf(delta)
	e.putRowBuf(next)
	return out, nil
}

// fixPrune builds the interval frontier test of a descendant-closure fixpoint
// running forward between both pushed constraints. Every tuple produced by
// expanding from node t has its target inside t's subtree, so when no
// end-constraint node lies strictly inside (begin(t), end(t)) the whole
// expansion from t would be discarded by the end filter. prune(t) reports
// that, and the iteration drops such tuples from the delta (they still enter
// the closure — t itself may satisfy the end constraint). It returns nil when
// the database has no encoding or the encoding cannot place an end node (e.g.
// the virtual root), where pruning would be unsound.
func (e *Exec) fixPrune(endRel *Relation) func(t int32) bool {
	st := e.DB.encoding()
	if st == nil {
		return nil
	}
	begins := make([]int64, 0, endRel.Len())
	seen := e.idScratch(colSpan(true, endRel))
	dead := endRel.dead
	for i, w := range endRel.rows {
		if dead.has(i) || !seen.add(w.f) {
			continue
		}
		iv, has := st.tab.get(int(w.f))
		if !has {
			return nil
		}
		begins = append(begins, iv.Begin)
	}
	sort.Slice(begins, func(i, j int) bool { return begins[i] < begins[j] })
	tab := st.tab
	return func(t int32) bool {
		tiv, has := tab.get(int(t))
		if !has {
			return false
		}
		i := sort.Search(len(begins), func(i int) bool { return begins[i] > tiv.Begin })
		return i >= len(begins) || begins[i] >= tiv.End
	}
}

// fixEndFilter keeps the closure tuples whose T is in π_F(End): with both
// constraints pushed the forward closure is post-filtered by the end
// constraint.
func (e *Exec) fixEndFilter(closure, end *Relation) *Relation {
	endIdx := end.fIndex()
	out := e.newRel("")
	dead := closure.dead
	for i, w := range closure.rows {
		if !dead.has(i) && endIdx.contains(w.t) {
			out.appendDistinct(w)
		}
	}
	return out
}

// fixExpand runs one semi-naive iteration: every delta row probes the seed
// index and the new tuples are folded into out in scan order, appending the
// genuinely new ones to next.
func (e *Exec) fixExpand(seed, out *Relation, delta, next []row, dir fixDir, prune func(t int32) bool) []row {
	var idx *colIndex
	if dir == fixFwd {
		idx = seed.fIndex()
	} else {
		idx = seed.tIndex()
	}
	sr := seed.probed()
	sdead, srows := sr.dead, sr.rows
	for i := range delta {
		d := delta[i]
		key := d.t
		if dir == fixBwd {
			key = d.f
		}
		snap, over := idx.lookup(key)
		for _, part := range [2][]int32{snap, over} {
			for _, pos := range part {
				if sdead.has(int(pos)) {
					continue
				}
				st := srows[pos]
				var nw row
				if dir == fixFwd {
					nw = row{f: d.f, t: st.t, v: st.v}
				} else {
					nw = row{f: st.f, t: d.t, v: d.v}
				}
				if out.addRow(nw) {
					e.Stats.TuplesOut++
					if prune == nil || !prune(nw.t) {
						next = append(next, nw)
					}
				}
			}
		}
	}
	return next
}

// descFilter answers a DescScan from its fixpoint alternative, the pushed
// constraints applied as post-filters: the interval kernel's result.
func (e *Exec) descFilter(alt *Relation, startIdx, endIdx *colIndex) *Relation {
	if startIdx == nil && endIdx == nil {
		return alt
	}
	out := e.newRel("")
	dead := alt.dead
	for i, w := range alt.rows {
		if !dead.has(i) && (startIdx == nil || startIdx.contains(w.f)) && (endIdx == nil || endIdx.contains(w.t)) {
			out.appendFrom(alt, w)
		}
	}
	e.Stats.TuplesOut += out.Len()
	return out
}

// descKernel is what the interval kernel reads: the sources, R_From's rows in
// begin order with their intervals, cut to the scope, and R_To's begin-sorted
// index, read only inside a source (so in the scope). Both are keyed on T.
type descKernel struct {
	from         []row
	begins, ends []int64
	to           *descIndex
}

// openDesc opens the interval kernel for a DescScan, or returns
// errNoDescKernel: no encoding, a DTD fingerprint mismatch (a program for a
// sub-DTD under-approximates the descendant relation, so containment would
// over-answer), or a relation node the encoding cannot place.
func (e *Exec) openDesc(pl ra.DescScan) (k descKernel, err error) {
	st := e.DB.encoding()
	if e.scope != nil {
		st = e.scope.st
	}
	if st == nil || !e.DB.fingerprintMatches(e.prog) {
		return k, errNoDescKernel
	}
	if k.to, err = st.indexFor(e.DB.Rel(pl.To)); err != nil {
		return k, err
	}
	k.from, k.begins, k.ends, err = e.sortedRun(st, e.DB.Rel(pl.From))
	return k, err
}

// descUse is what a DescScan's consumer reads of it: all (the zero value);
// stair ⋈ DescScan, all of stair's live rows holding one F, stairF; or, with
// exists, its F column, of the sources with a descendant in F(s) (any, when s
// is nil).
type descUse struct {
	stair  *Relation
	stairF int32
	exists bool
	s      []*Relation
}

// descScanFast is the interval kernel: each source passing the start
// constraint answers its To-typed proper descendants with one searched range
// of the To index — no fixpoint iteration — computing only what use reads.
// stair ⋈ DescScan pairs stair's one F with the To nodes below its T's: in
// begin order, the sources inside the last one kept add none and are skipped
// — the staircase join's pruning (Grust, van Keulen, Teubner, VLDB 2003) —
// and the disjoint kept ranges derive each pair once. For its F column, a
// source's scan stops at its first descendant in F(s): the join DescScan ∘ S.
func (e *Exec) descScanFast(k descKernel, use descUse, startIdx, endIdx *colIndex) (*Relation, error) {
	var inStair *colIndex
	switch {
	case use.stair != nil:
		e.Stats.StairScans++
		inStair = use.stair.members(false)
	case use.exists:
		e.Stats.ExistsProbes++
		if use.s != nil {
			e.Stats.Joins++
			if len(use.s) == 1 && use.s[0].members(true) == endIdx {
				use.s = nil // the end constraint tests the same
			}
		}
	}
	srcs := e.getRowBuf()        // per source, its position in k.from and the F of its pairs
	kept := int64(math.MinInt64) // under a stair, the end of the last source kept
	for i, w := range k.from {
		if inStair != nil && (k.begins[i] < kept || inStair != startIdx && !inStair.contains(w.t)) ||
			startIdx != nil && !startIdx.contains(w.t) {
			continue
		}
		f := w.t
		if inStair != nil {
			f, kept = use.stairF, k.ends[i]
		}
		srcs = append(srcs, row{f: int32(i), t: f})
	}
	defer e.putRowBuf(srcs)
	e.Stats.DescScans++
	out := e.newRel("")
	// Matches fold straight into the output, in source order, with no
	// candidate buffer, checking the bounds as the scan goes.
	for lo := 0; lo < len(srcs); lo += checkEvery {
		n := out.Len()
		k.pairs(srcs[lo:min(lo+checkEvery, len(srcs))], use, endIdx, out.appendDistinct)
		e.Stats.TuplesOut += out.Len() - n
		if err := e.check(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkEvery is how many sources the kernel scans per bounds check.
const checkEvery = 64

// pairs emits the pairs of the sources at positions srcs, ascending, each
// range sought from where the last one began.
func (k *descKernel) pairs(srcs []row, use descUse, endIdx *colIndex, emit func(row)) {
	at := 0
	for _, x := range srcs {
		var hi int
		at, hi = k.to.rangeOf(at, k.begins[x.f], k.ends[x.f])
		for _, to := range k.to.rows[at:hi] {
			if (endIdx == nil || endIdx.contains(to.t)) && (use.s == nil || anyF(use.s, to.t)) {
				emit(row{f: x.t, t: to.t, v: to.v})
				if use.exists {
					break
				}
			}
		}
	}
}

// anyF reports whether k is the F value of a row of one of rs.
func anyF(rs []*Relation, k int32) bool {
	for _, r := range rs {
		if r.members(true).contains(k) {
			return true
		}
	}
	return false
}

// witnessRows keeps one row of r per F value whose T is the F value of a row
// of one of s: π_F(r ∘ S), the existence reduction of a compose, and a join.
func (e *Exec) witnessRows(r *Relation, s []*Relation) *Relation {
	e.Stats.Joins++
	out := e.newRel("")
	seen := e.idScratch(colSpan(true, r))
	dead := r.dead
	for i, w := range r.rows {
		if !dead.has(i) && !seen.has(w.f) && anyF(s, w.t) {
			seen.add(w.f)
			out.appendFrom(r, w)
		}
	}
	e.Stats.TuplesOut += out.Len()
	return out
}

// semijoin keeps the rows of l whose T is — or, anti, is not — the F value of
// a row of one of wits.
func (e *Exec) semijoin(l *Relation, wits []*Relation, anti bool) *Relation {
	e.Stats.Joins++
	out := e.newRel("")
	n := 0
	for _, r := range wits {
		n += r.Len()
	}
	if !anti && n*8 < l.Len() {
		// Small witness side: probe L's T index with the witnesses' distinct F
		// values — O(|R| + |out|) instead of a full scan of L. This is the
		// shape of a selective qualifier (a text-equality witness such as
		// [cno='cs11'], a few rows) filtering a large closure or type
		// relation, whose T index is built once per relation and reused.
		idx, pl := l.tIndex(), l.probed()
		ldead, lrows := pl.dead, pl.rows
		seen := e.idScratch(colSpan(true, wits...))
		for _, r := range wits {
			dead := r.dead
			for i, w := range r.rows {
				if dead.has(i) || !seen.add(w.f) {
					continue
				}
				snap, over := idx.lookup(w.f)
				for _, part := range [2][]int32{snap, over} {
					for _, pos := range part {
						if !ldead.has(int(pos)) {
							out.appendFrom(l, lrows[pos])
						}
					}
				}
			}
		}
	} else {
		dead := l.dead
		for i, w := range l.rows {
			if !dead.has(i) && anyF(wits, w.t) != anti {
				out.appendFrom(l, w)
			}
		}
	}
	e.Stats.TuplesOut += out.Len()
	return out
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
// the effect the paper's experiments measure.
func (e *Exec) recUnion(pl ra.RecUnion, in []*Relation) (*Relation, error) {
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
	// Operands arrive in ra.Inputs order: the Init relations, then the edge
	// relations (base tables in SQLGen-R plans).
	for i, init := range pl.Init {
		r := in[i]
		tag := tagOf(init.Tag)
		dead := r.dead
		for j, w := range r.rows {
			if dead.has(j) {
				continue
			}
			if r.syms != all.syms && w.v != 0 {
				w.v = all.interner().Intern(r.interner().Str(w.v))
			}
			add(tag, w)
		}
	}
	edgeFrom := make([]int32, len(pl.Edges))
	edgeTo := make([]int32, len(pl.Edges))
	for i, ed := range pl.Edges {
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
			rel := in[len(pl.Init)+i]
			idx, pr := rel.fIndex(), rel.probed()
			dead, rrows := pr.dead, pr.rows
			from, to := edgeFrom[i], edgeTo[i]
			for _, d := range acc[:snapshot] {
				if d.tag != from {
					continue
				}
				snap, over := idx.lookup(d.w.t)
				for _, part := range [2][]int32{snap, over} {
					for _, pos := range part {
						if dead.has(int(pos)) {
							continue
						}
						et := rrows[pos]
						if pl.Pairs {
							// Keep the origin: (d.F, edge.T).
							add(to, row{f: d.w.f, t: et.t, v: et.v})
						} else {
							// Fig 2: insert the edge's own (F, T).
							add(to, et)
						}
					}
				}
			}
		}
	}
	return result, nil
}
