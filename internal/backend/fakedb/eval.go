package fakedb

import (
	"fmt"
	"strconv"
	"strings"
)

// The evaluator executes parsed statements against a memDB. All values are
// raw byte strings; rows are []string. Set semantics (UNION, EXCEPT,
// DISTINCT, recursive-CTE convergence) dedupe on the full row with a
// NUL-safe length-prefixed key, so hostile values cannot alias one another.
//
// Recursive CTEs are evaluated semi-naively with full-row dedup: the delta
// of each iteration feeds the next, and a row already derived is never
// re-derived. On cyclic data this terminates where a literal UNION ALL
// reading would not — the fixpoint the renderer's final SELECT DISTINCT
// asks for. Uncorrelated subqueries (FROM subselects, IN/EXISTS bodies) are
// memoized per statement unless they reference a CTE still being iterated.

type table struct {
	cols []string
	rows [][]string
}

func (t *table) colIndex(name string) int {
	for i, c := range t.cols {
		if strings.EqualFold(c, name) {
			return i
		}
	}
	return -1
}

// rowKey is a collision-free encoding of a row: length-prefixed fields, so
// embedded NULs or separators in values cannot alias two distinct rows.
func rowKey(r []string) string {
	var b strings.Builder
	for _, v := range r {
		b.WriteString(strconv.Itoa(len(v)))
		b.WriteByte(':')
		b.WriteString(v)
	}
	return b.String()
}

func dedupe(rows [][]string) [][]string {
	seen := make(map[string]bool, len(rows))
	out := rows[:0:0]
	for _, r := range rows {
		k := rowKey(r)
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

// joined is the intermediate result of a FROM clause: the concatenation of
// the participating sources' columns, with per-source alias scoping.
type joined struct {
	srcs []jsrc
	rows [][]string
}

type jsrc struct {
	alias string
	cols  []string
	off   int
}

func (j *joined) width() int {
	if len(j.srcs) == 0 {
		return 0
	}
	last := j.srcs[len(j.srcs)-1]
	return last.off + len(last.cols)
}

// resolve finds the row index of alias.col; alias "" matches any source
// holding the column (ambiguity is an error).
func (j *joined) resolve(alias, col string) (int, bool, error) {
	found, n := -1, 0
	for _, s := range j.srcs {
		if alias != "" && !strings.EqualFold(s.alias, alias) {
			continue
		}
		for i, c := range s.cols {
			if strings.EqualFold(c, col) {
				found = s.off + i
				n++
				break
			}
		}
	}
	if n > 1 {
		return 0, false, fmt.Errorf("fakesql: ambiguous column %s", col)
	}
	return found, n == 1, nil
}

// rowEnv chains the rows of enclosing selects for correlated subqueries.
type rowEnv struct {
	parent *rowEnv
	j      *joined
	row    []string
}

type evaluator struct {
	db       *memDB
	args     []string
	recLimit int // max recursive-CTE iterations, 0 = unbounded
	ctes     map[string]*table
	iter     map[string]bool // CTE names currently being iterated (not memoizable)
	memo     map[any]*table
	exists   map[any]*existsIdx
	inSets   map[*condIn]inSetEntry
}

func newEvaluator(db *memDB, args []string, recLimit int) *evaluator {
	return &evaluator{
		db:       db,
		args:     args,
		recLimit: recLimit,
		ctes:     map[string]*table{},
		iter:     map[string]bool{},
		memo:     map[any]*table{},
		exists:   map[any]*existsIdx{},
	}
}

// lookup resolves a FROM table name: CTE bindings shadow stored tables.
func (ev *evaluator) lookup(name string) (*table, error) {
	if t, ok := ev.ctes[strings.ToLower(name)]; ok {
		return t, nil
	}
	if t, ok := ev.db.tables[strings.ToLower(name)]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("fakesql: no such table %q", name)
}

func (ev *evaluator) evalQuery(q queryNode, outer *rowEnv) (*table, error) {
	switch q := q.(type) {
	case *compoundNode:
		return ev.evalCompound(q, outer)
	case *withNode:
		return ev.evalWith(q, outer)
	}
	return nil, fmt.Errorf("fakesql: unknown query node %T", q)
}

func (ev *evaluator) evalCompound(c *compoundNode, outer *rowEnv) (*table, error) {
	acc, err := ev.evalSelect(c.parts[0], outer)
	if err != nil {
		return nil, err
	}
	rows := acc.rows
	for i, op := range c.ops {
		next, err := ev.evalSelect(c.parts[i+1], outer)
		if err != nil {
			return nil, err
		}
		if len(next.cols) != len(acc.cols) {
			return nil, fmt.Errorf("fakesql: set operation over different column counts (%d vs %d)", len(acc.cols), len(next.cols))
		}
		switch op {
		case "UNION ALL":
			rows = append(rows, next.rows...)
		case "UNION":
			rows = dedupe(append(rows, next.rows...))
		case "EXCEPT":
			drop := make(map[string]bool, len(next.rows))
			for _, r := range next.rows {
				drop[rowKey(r)] = true
			}
			var kept [][]string
			for _, r := range dedupe(rows) {
				if !drop[rowKey(r)] {
					kept = append(kept, r)
				}
			}
			rows = kept
		}
	}
	return &table{cols: acc.cols, rows: rows}, nil
}

func (ev *evaluator) evalWith(w *withNode, outer *rowEnv) (*table, error) {
	name := strings.ToLower(w.name)
	if _, shadow := ev.ctes[name]; shadow {
		return nil, fmt.Errorf("fakesql: nested redefinition of CTE %q", w.name)
	}
	var body *table
	if w.recursive {
		t, err := ev.evalRecursive(w, outer)
		if err != nil {
			return nil, err
		}
		body = t
	} else {
		t, err := ev.evalCompound(w.body, outer)
		if err != nil {
			return nil, err
		}
		body = t
	}
	if len(w.cols) > 0 {
		if len(w.cols) != len(body.cols) {
			return nil, fmt.Errorf("fakesql: CTE %q declares %d columns, body yields %d", w.name, len(w.cols), len(body.cols))
		}
		body = &table{cols: w.cols, rows: body.rows}
	}
	ev.ctes[name] = body
	defer delete(ev.ctes, name)
	return ev.evalQuery(w.outer, outer)
}

// evalRecursive runs the semi-naive fixpoint of a recursive CTE. Body parts
// that do not reference the CTE are the seed; the rest re-run per iteration
// against the previous delta only.
func (ev *evaluator) evalRecursive(w *withNode, outer *rowEnv) (*table, error) {
	name := strings.ToLower(w.name)
	var seeds, recs []*selectNode
	for i, part := range w.body.parts {
		if i > 0 && !strings.HasPrefix(w.body.ops[i-1], "UNION") {
			return nil, fmt.Errorf("fakesql: recursive CTE %q combines parts with %s", w.name, w.body.ops[i-1])
		}
		if selectRefsTable(part, name) {
			recs = append(recs, part)
		} else {
			seeds = append(seeds, part)
		}
	}
	if len(recs) == 0 {
		return ev.evalCompound(w.body, outer)
	}
	cols := w.cols
	seen := map[string]bool{}
	var acc, delta [][]string
	for _, s := range seeds {
		t, err := ev.evalSelect(s, outer)
		if err != nil {
			return nil, err
		}
		if cols == nil {
			cols = t.cols
		}
		if len(t.cols) != len(cols) {
			return nil, fmt.Errorf("fakesql: recursive CTE %q seed column mismatch", w.name)
		}
		for _, r := range t.rows {
			k := rowKey(r)
			if !seen[k] {
				seen[k] = true
				acc = append(acc, r)
				delta = append(delta, r)
			}
		}
	}
	ev.iter[name] = true
	defer delete(ev.iter, name)
	iters := 0
	for len(delta) > 0 {
		if iters++; ev.recLimit > 0 && iters > ev.recLimit {
			delete(ev.ctes, name)
			return nil, fmt.Errorf("fakesql: recursive CTE %q exceeded MAX_RECURSIVE_ITERATIONS = %d", w.name, ev.recLimit)
		}
		ev.ctes[name] = &table{cols: cols, rows: delta}
		var fresh [][]string
		for _, rsel := range recs {
			t, err := ev.evalSelect(rsel, outer)
			if err != nil {
				delete(ev.ctes, name)
				return nil, err
			}
			if len(t.cols) != len(cols) {
				delete(ev.ctes, name)
				return nil, fmt.Errorf("fakesql: recursive CTE %q step column mismatch", w.name)
			}
			for _, r := range t.rows {
				k := rowKey(r)
				if !seen[k] {
					seen[k] = true
					fresh = append(fresh, r)
				}
			}
		}
		acc = append(acc, fresh...)
		delta = fresh
	}
	delete(ev.ctes, name)
	return &table{cols: cols, rows: acc}, nil
}

// selectRefsTable reports whether the select's FROM (recursively through
// subqueries and subquery conditions) references the named table.
func selectRefsTable(s *selectNode, name string) bool {
	for _, f := range s.from {
		if f.sub == nil && strings.EqualFold(f.table, name) {
			return true
		}
		if f.sub != nil && queryRefsTable(f.sub, name) {
			return true
		}
		if condsRefTable(f.on, name) {
			return true
		}
	}
	return condsRefTable(s.where, name)
}

func condsRefTable(conds []condNode, name string) bool {
	for _, c := range conds {
		switch c := c.(type) {
		case *condIn:
			if queryRefsTable(c.q, name) {
				return true
			}
		case *condExists:
			if queryRefsTable(c.q, name) {
				return true
			}
		}
	}
	return false
}

func queryRefsTable(q queryNode, name string) bool {
	switch q := q.(type) {
	case *compoundNode:
		for _, p := range q.parts {
			if selectRefsTable(p, name) {
				return true
			}
		}
	case *withNode:
		if queryRefsTable(q.body, name) || queryRefsTable(q.outer, name) {
			return true
		}
	}
	return false
}

// refsIteratingCTE reports whether a subquery touches any CTE currently
// being iterated — such subqueries must not be memoized.
func (ev *evaluator) refsIteratingCTE(q queryNode) bool {
	for name := range ev.iter {
		if queryRefsTable(q, name) {
			return true
		}
	}
	return false
}

// subTable evaluates an uncorrelated subquery with per-statement
// memoization.
func (ev *evaluator) subTable(q queryNode, outer *rowEnv) (*table, error) {
	if outer == nil && !ev.refsIteratingCTE(q) {
		if t, ok := ev.memo[q]; ok {
			return t, nil
		}
		t, err := ev.evalQuery(q, nil)
		if err != nil {
			return nil, err
		}
		ev.memo[q] = t
		return t, nil
	}
	return ev.evalQuery(q, outer)
}

func (ev *evaluator) evalSelect(s *selectNode, outer *rowEnv) (*table, error) {
	j, err := ev.evalFrom(s, outer)
	if err != nil {
		return nil, err
	}
	// Project.
	cols := make([]string, len(s.items))
	for i, it := range s.items {
		switch {
		case it.alias != "":
			cols[i] = it.alias
		default:
			if c, ok := it.e.(*colRef); ok {
				cols[i] = c.col
			} else {
				cols[i] = fmt.Sprintf("_col%d", i+1)
			}
		}
	}
	out := make([][]string, 0, len(j.rows))
	for _, row := range j.rows {
		env := &rowEnv{parent: outer, j: j, row: row}
		pr := make([]string, len(s.items))
		for i, it := range s.items {
			v, err := ev.evalExpr(it.e, env)
			if err != nil {
				return nil, err
			}
			pr[i] = v
		}
		out = append(out, pr)
	}
	if s.distinct {
		out = dedupe(out)
	}
	return &table{cols: cols, rows: out}, nil
}

// evalFrom materializes the FROM clause with every WHERE / ON conjunct
// applied: single-source conjuncts filter before joining, equality
// conjuncts between two sources drive hash joins, and the rest (EXISTS, IN,
// cross-source equalities the joins didn't consume) filter the final rows.
func (ev *evaluator) evalFrom(s *selectNode, outer *rowEnv) (*joined, error) {
	// No FROM: one empty row, so SELECT <literals> yields a single row.
	if len(s.from) == 0 {
		j := &joined{rows: [][]string{{}}}
		return j, ev.filterRows(j, s.where, outer)
	}
	var conds []condNode
	conds = append(conds, s.where...)
	for _, f := range s.from {
		conds = append(conds, f.on...)
	}
	var cur *joined
	for _, f := range s.from {
		src, err := ev.fromSource(f, outer)
		if err != nil {
			return nil, err
		}
		// Filter the new source alone with its single-alias conjuncts.
		solo := &joined{srcs: []jsrc{{alias: f.alias, cols: src.cols}}, rows: src.rows}
		var rest []condNode
		for _, c := range conds {
			ok, err := ev.condLocalTo(c, solo)
			if err != nil {
				return nil, err
			}
			if ok {
				if err := ev.filterRows(solo, []condNode{c}, outer); err != nil {
					return nil, err
				}
			} else {
				rest = append(rest, c)
			}
		}
		conds = rest
		if cur == nil {
			cur = solo
			continue
		}
		cur, conds, err = ev.join(cur, solo, conds, outer)
		if err != nil {
			return nil, err
		}
	}
	return cur, ev.filterRows(cur, conds, outer)
}

func (ev *evaluator) fromSource(f fromItem, outer *rowEnv) (*table, error) {
	if f.sub != nil {
		return ev.subTable(f.sub, correlatedOnly(f.sub, outer))
	}
	return ev.lookup(f.table)
}

// correlatedOnly passes the outer environment through to a subquery only
// when it could actually resolve something there; renderer subqueries are
// uncorrelated in FROM position, which keeps them memoizable.
func correlatedOnly(queryNode, *rowEnv) *rowEnv { return nil }

// condLocalTo reports whether every column the condition references
// resolves within j (EXISTS/IN bodies excluded — their subqueries are
// handled at filter time).
func (ev *evaluator) condLocalTo(c condNode, j *joined) (bool, error) {
	switch c := c.(type) {
	case *condEq:
		return exprsLocalTo(j, c.l, c.r), nil
	case *condIn:
		return exprsLocalTo(j, c.e), nil
	case *condExists:
		// EXISTS correlates with enclosing rows; never push it to one side.
		return false, nil
	}
	return false, fmt.Errorf("fakesql: unknown condition %T", c)
}

func exprsLocalTo(j *joined, exprs ...exprNode) bool {
	for _, e := range exprs {
		for _, ref := range exprRefs(e) {
			idx, ok, err := j.resolve(ref.alias, ref.col)
			if err != nil || !ok || idx < 0 {
				return false
			}
		}
	}
	return true
}

func exprRefs(e exprNode) []*colRef {
	if c, ok := e.(*colRef); ok {
		return []*colRef{c}
	}
	return nil
}

// join combines cur and next, consuming one equality conjunct as a hash-join
// key when one side resolves in cur and the other in next; without such a
// conjunct it falls back to the cross product (filtered later).
func (ev *evaluator) join(cur, next *joined, conds []condNode, outer *rowEnv) (*joined, []condNode, error) {
	var leftKey, rightKey exprNode
	used := -1
	for i, c := range conds {
		eq, ok := c.(*condEq)
		if !ok {
			continue
		}
		switch {
		case exprsLocalTo(cur, eq.l) && exprsLocalTo(next, eq.r):
			leftKey, rightKey, used = eq.l, eq.r, i
		case exprsLocalTo(next, eq.l) && exprsLocalTo(cur, eq.r):
			leftKey, rightKey, used = eq.r, eq.l, i
		}
		if used >= 0 {
			break
		}
	}
	out := &joined{srcs: append(append([]jsrc{}, cur.srcs...), jsrc{
		alias: next.srcs[0].alias,
		cols:  next.srcs[0].cols,
		off:   cur.width(),
	})}
	if used >= 0 {
		conds = append(append([]condNode{}, conds[:used]...), conds[used+1:]...)
		idx := make(map[string][][]string, len(next.rows))
		for _, r := range next.rows {
			env := &rowEnv{parent: outer, j: next, row: r}
			k, err := ev.evalExpr(rightKey, env)
			if err != nil {
				return nil, nil, err
			}
			idx[k] = append(idx[k], r)
		}
		for _, l := range cur.rows {
			env := &rowEnv{parent: outer, j: cur, row: l}
			k, err := ev.evalExpr(leftKey, env)
			if err != nil {
				return nil, nil, err
			}
			for _, r := range idx[k] {
				out.rows = append(out.rows, append(append([]string{}, l...), r...))
			}
		}
		return out, conds, nil
	}
	for _, l := range cur.rows {
		for _, r := range next.rows {
			out.rows = append(out.rows, append(append([]string{}, l...), r...))
		}
	}
	return out, conds, nil
}

// filterRows applies conjuncts to j in place.
func (ev *evaluator) filterRows(j *joined, conds []condNode, outer *rowEnv) error {
	if len(conds) == 0 {
		return nil
	}
	kept := j.rows[:0:0]
	for _, row := range j.rows {
		env := &rowEnv{parent: outer, j: j, row: row}
		ok := true
		for _, c := range conds {
			v, err := ev.evalCond(c, env)
			if err != nil {
				return err
			}
			if !v {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, row)
		}
	}
	j.rows = kept
	return nil
}

func (ev *evaluator) evalCond(c condNode, env *rowEnv) (bool, error) {
	switch c := c.(type) {
	case *condEq:
		l, err := ev.evalExpr(c.l, env)
		if err != nil {
			return false, err
		}
		r, err := ev.evalExpr(c.r, env)
		if err != nil {
			return false, err
		}
		return l == r, nil
	case *condIn:
		t, err := ev.subTable(c.q, nil)
		if err != nil {
			return false, err
		}
		if len(t.cols) != 1 {
			return false, fmt.Errorf("fakesql: IN subquery yields %d columns", len(t.cols))
		}
		v, err := ev.evalExpr(c.e, env)
		if err != nil {
			return false, err
		}
		set := ev.inSet(c, t)
		return set[v], nil
	case *condExists:
		hit, err := ev.evalExists(c, env)
		if err != nil {
			return false, err
		}
		return hit != c.neg, nil
	}
	return false, fmt.Errorf("fakesql: unknown condition %T", c)
}

// inSet caches the value set of an IN subquery, keyed by the condition and
// the materialized table it was built from (the table pointer changes when
// a recursive iteration re-evaluates the subquery).
func (ev *evaluator) inSet(c *condIn, t *table) map[string]bool {
	if s, ok := ev.inSets[c]; ok && s.src == t {
		return s.set
	}
	set := make(map[string]bool, len(t.rows))
	for _, r := range t.rows {
		set[r[0]] = true
	}
	if ev.inSets == nil {
		ev.inSets = map[*condIn]inSetEntry{}
	}
	ev.inSets[c] = inSetEntry{src: t, set: set}
	return set
}

type inSetEntry struct {
	src *table
	set map[string]bool
}

// existsIdx is the prepared form of an EXISTS condition: the subquery's
// rows with all uncorrelated conjuncts applied, plus a value set over the
// correlated equality's inner side when the correlation has that shape.
type existsIdx struct {
	innerJ    *joined
	corr      []corrEq
	set       map[string]bool // keyed by rowKey of the outer-side values
	fallbackR [][]string
}

type corrEq struct {
	inner exprNode // resolves in the subquery's FROM
	outer exprNode // resolves only in enclosing rows
}

// evalExists evaluates EXISTS (sub) for the current row. The subquery is
// evaluated once: conjuncts referencing enclosing rows are split out, the
// remainder filters the materialized inner rows, and equality correlations
// become a hash-set probe per outer row.
func (ev *evaluator) evalExists(c *condExists, env *rowEnv) (bool, error) {
	idx, err := ev.existsIndex(c, env)
	if err != nil {
		return false, err
	}
	if idx.set != nil {
		key := make([]string, len(idx.corr))
		for i, ce := range idx.corr {
			v, err := ev.evalExpr(ce.outer, env)
			if err != nil {
				return false, err
			}
			key[i] = v
		}
		return idx.set[rowKey(key)], nil
	}
	// No equality correlation (or an unsupported shape): scan the
	// materialized rows, evaluating the leftover conjuncts with the inner
	// row chained onto the enclosing environment.
	for _, r := range idx.fallbackR {
		inner := &rowEnv{parent: env, j: idx.innerJ, row: r}
		ok := true
		for _, ce := range idx.corr {
			l, err := ev.evalExpr(ce.inner, inner)
			if err != nil {
				return false, err
			}
			rr, err := ev.evalExpr(ce.outer, inner)
			if err != nil {
				return false, err
			}
			if l != rr {
				ok = false
				break
			}
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

func (ev *evaluator) existsIndex(c *condExists, env *rowEnv) (*existsIdx, error) {
	if !ev.refsIteratingCTE(c.q) {
		if idx, ok := ev.exists[c]; ok {
			return idx, nil
		}
	}
	comp, ok := c.q.(*compoundNode)
	if !ok || len(comp.parts) != 1 {
		// General subquery: materialize it fully per statement and treat a
		// non-empty result as a hit (no correlation possible through a
		// compound in the renderer's grammar).
		t, err := ev.subTable(c.q, nil)
		if err != nil {
			return nil, err
		}
		idx := &existsIdx{fallbackR: t.rows}
		ev.exists[c] = idx
		return idx, nil
	}
	sub := comp.parts[0]
	// Evaluate the subquery's FROM with no WHERE, then split conjuncts.
	stripped := &selectNode{items: sub.items, from: sub.from, distinct: false}
	j, err := ev.evalFrom(stripped, nil)
	if err != nil {
		return nil, err
	}
	var local, correlated []condNode
	for _, cd := range sub.where {
		ok, err := ev.condLocalTo(cd, j)
		if err != nil {
			return nil, err
		}
		if ok {
			local = append(local, cd)
		} else {
			correlated = append(correlated, cd)
		}
	}
	if err := ev.filterRows(j, local, nil); err != nil {
		return nil, err
	}
	idx := &existsIdx{innerJ: j}
	// Equality correlations inner-vs-outer become a set probe.
	allEq := true
	for _, cd := range correlated {
		eq, isEq := cd.(*condEq)
		if !isEq {
			allEq = false
			break
		}
		switch {
		case exprsLocalTo(j, eq.l) && !refsAnyLocal(j, eq.r):
			idx.corr = append(idx.corr, corrEq{inner: eq.l, outer: eq.r})
		case exprsLocalTo(j, eq.r) && !refsAnyLocal(j, eq.l):
			idx.corr = append(idx.corr, corrEq{inner: eq.r, outer: eq.l})
		default:
			allEq = false
		}
		if !allEq {
			break
		}
	}
	if allEq && len(idx.corr) > 0 {
		idx.set = make(map[string]bool, len(j.rows))
		for _, r := range j.rows {
			inner := &rowEnv{j: j, row: r}
			key := make([]string, len(idx.corr))
			for i, ce := range idx.corr {
				v, err := ev.evalExpr(ce.inner, inner)
				if err != nil {
					return nil, err
				}
				key[i] = v
			}
			idx.set[rowKey(key)] = true
		}
	} else {
		// Fallback: keep rows and re-split conjuncts per probe.
		idx.corr = nil
		for _, cd := range correlated {
			eq, isEq := cd.(*condEq)
			if !isEq {
				return nil, fmt.Errorf("fakesql: unsupported correlated EXISTS condition %T", cd)
			}
			idx.corr = append(idx.corr, corrEq{inner: eq.l, outer: eq.r})
		}
		idx.fallbackR = j.rows
	}
	if !ev.refsIteratingCTE(c.q) {
		ev.exists[c] = idx
	}
	return idx, nil
}

// refsAnyLocal reports whether the expression references any column
// resolvable in j.
func refsAnyLocal(j *joined, e exprNode) bool {
	for _, ref := range exprRefs(e) {
		if idx, ok, _ := j.resolve(ref.alias, ref.col); ok && idx >= 0 {
			return true
		}
	}
	return false
}

func (ev *evaluator) evalExpr(e exprNode, env *rowEnv) (string, error) {
	switch e := e.(type) {
	case *litExpr:
		return e.s, nil
	case *numExpr:
		return e.s, nil
	case *paramExpr:
		if e.idx >= len(ev.args) {
			return "", fmt.Errorf("fakesql: missing bind argument %d", e.idx+1)
		}
		return ev.args[e.idx], nil
	case *colRef:
		for scope := env; scope != nil; scope = scope.parent {
			if scope.j == nil {
				continue
			}
			idx, ok, err := scope.j.resolve(e.alias, e.col)
			if err != nil {
				return "", err
			}
			if ok {
				return scope.row[idx], nil
			}
		}
		return "", fmt.Errorf("fakesql: unknown column %s", refString(e))
	}
	return "", fmt.Errorf("fakesql: unknown expression %T", e)
}

func refString(c *colRef) string {
	if c.alias != "" {
		return c.alias + "." + c.col
	}
	return c.col
}
