package core

import (
	"cmp"
	"context"
	"fmt"

	"xpath2sql/internal/dtd"
	"xpath2sql/internal/obs"
	"xpath2sql/internal/ra"
	"xpath2sql/internal/rdb"
	"xpath2sql/internal/xpath"
)

// BatchResult is a multi-query translation: one merged program whose shared
// sub-queries — seed relations, typed edge unions, qualifier witnesses —
// are computed once across all queries, the multi-query optimization the
// paper points at ([54] in §5.2/§8).
type BatchResult struct {
	Program *ra.Program
	// ResultNames holds, per input query, the statement whose relation is
	// its answer.
	ResultNames []string
	Strategies  []Strategy
}

// TranslateBatch translates several queries over one DTD into a single
// statement sequence with cross-query common-sub-query extraction. Queries
// share the DTD analysis (one CycleEX / flat-rec run) and, after merging,
// every structurally identical statement is computed once.
func TranslateBatch(queries []xpath.Path, d *dtd.DTD, opts Options) (*BatchResult, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("core: empty batch")
	}
	results := make([]*Result, len(queries))
	for i, q := range queries {
		res, err := Translate(q, d, opts)
		if err != nil {
			return nil, fmt.Errorf("core: batch query %d (%s): %w", i, q, err)
		}
		results[i] = res
	}
	return MergeBatch(results)
}

// MergeBatch merges already-translated queries into one batch program with
// content-addressed statement sharing: every statement is renamed to a name
// derived from its canonical plan (temp references resolved to the merged
// names first), so structurally identical statements collapse onto one
// definition *across* queries — including statements that arrived from a
// shared plan cache. Duplicate queries in a batch merge to the same result
// statement for free. The inputs are never mutated, so cached Results can
// be merged concurrently.
//
// While canonicalizing, every fully constrained fixpoint
// Φ(seed; start; end) without path tracking is split into
// Semijoin(Φ(seed; start), end): the engine evaluates the constrained-both
// form as the forward closure from start followed by an end filter (§5.2),
// so the split is cost-neutral for one query, while the expensive closure
// becomes textually identical across queries that differ only in their end
// constraint — the common case for a batch of //-queries over one
// DTD — and is then computed once per batch.
func MergeBatch(results []*Result) (*BatchResult, error) {
	out, err := mergeStmts(results)
	if err != nil {
		return nil, err
	}
	// Sub-statement sharing: identical inline sub-plans (now spelled
	// identically thanks to canonical temp names) get shared temps.
	ExtractCommon(out.Program)
	out.Program.StampKeys()
	return out, nil
}

// mergeStmts is MergeBatch up to, not including, the extraction of common
// sub-plans from the merged statements.
func mergeStmts(results []*Result) (*BatchResult, error) {
	if len(results) == 0 {
		return nil, fmt.Errorf("core: empty batch")
	}
	merged := &ra.Program{}
	// The merged program keeps the shredding-DTD fingerprint when every
	// member carries the same one — the interval kernel's gate reads it, and
	// a batch is almost always homogeneous in DTD. A mixed batch drops the
	// stamp and runs descendant steps through the fixpoint, which is sound.
	merged.DTDFP = results[0].Program.DTDFP
	for _, res := range results {
		if res.Program.DTDFP != merged.DTDFP {
			merged.DTDFP = ""
			break
		}
	}
	in := ra.NewInterner()
	defs := map[int]string{} // canonical plan (its interned number) -> merged stmt name
	out := &BatchResult{}
	for qi, res := range results {
		prog := res.Program
		local := map[string]string{} // source stmt name -> merged stmt name
		var resolve func(name string) (string, error)
		var failed error
		var canon func(pl ra.Plan) (ra.Plan, bool)
		canon = func(pl ra.Plan) (ra.Plan, bool) {
			if t, ok := pl.(ra.Temp); ok {
				nm, err := resolve(t.Name)
				if failed = cmp.Or(failed, err); err != nil || nm == t.Name {
					return pl, false
				}
				return ra.Temp{Name: nm}, true
			}
			p, changed := mapInputs(pl, canon)
			if f, ok := p.(ra.Fix); ok && f.Start != nil && f.End != nil {
				return ra.Semijoin{L: ra.Fix{Seed: f.Seed, Start: f.Start, Desc: f.Desc}, R: f.End}, true
			}
			return p, changed
		}
		resolve = func(name string) (string, error) {
			if nm, ok := local[name]; ok {
				return nm, nil
			}
			src := prog.Lookup(name)
			if src == nil {
				return "", fmt.Errorf("core: batch query %d: unknown statement %q", qi, name)
			}
			plan, _ := canon(src)
			if failed != nil {
				return "", failed
			}
			key := in.ID(plan)
			nm, ok := defs[key]
			if !ok {
				nm = fmt.Sprintf("m%d", len(defs)+1)
				defs[key] = nm
				merged.Stmts = append(merged.Stmts, ra.Stmt{Name: nm, Plan: plan})
			}
			local[name] = nm
			return nm, nil
		}
		rn, err := resolve(prog.Result)
		if err != nil {
			return nil, err
		}
		out.ResultNames = append(out.ResultNames, rn)
		out.Strategies = append(out.Strategies, res.Strategy)
	}
	merged.Result = out.ResultNames[len(out.ResultNames)-1]
	out.Program = merged
	return out, nil
}

// Execute runs the batch and returns the answers per query (virtual-root
// answers stripped, as in Result.Execute). All queries run within one
// executor, so shared statements are evaluated once.
func (b *BatchResult) Execute(db *rdb.DB) ([][]int, *rdb.Stats, error) {
	answers, _, total, err := b.ExecuteCtx(context.Background(), db, 1, obs.Limits{}, nil)
	return answers, total, err
}

// ExecuteCtx runs the batch under a context with resource limits and
// returns, besides the per-query answers, per-query execution statistics
// alongside the executor's total. All queries share one pooled executor
// (shared statements are evaluated once), so the per-query stats are
// snapshot deltas around each query's RunMore call: work is charged exactly
// once, to the query whose evaluation performed it, and the deltas sum to
// the total. workers caps the morsel fan-out inside an operator
// (rdb.Exec.Parallelism). Limits.Timeout budgets each query's run
// separately; when trace is non-nil all queries' statement events accumulate
// into it.
func (b *BatchResult) ExecuteCtx(ctx context.Context, db *rdb.DB, workers int, limits obs.Limits, trace *obs.Trace) ([][]int, []rdb.Stats, *rdb.Stats, error) {
	st := rdb.AcquireState(db)
	defer st.Release()
	ex := st.Exec()
	ex.Parallelism = workers
	ex.Limits = limits
	answers := make([][]int, len(b.ResultNames))
	perQuery := make([]rdb.Stats, len(b.ResultNames))
	for i, name := range b.ResultNames {
		prog := *b.Program
		prog.Result = name
		before := ex.Stats
		rel, err := ex.RunMoreCtx(ctx, &prog, trace)
		if err != nil {
			return nil, nil, nil, err
		}
		perQuery[i] = ex.Stats.Minus(before)
		answers[i] = rel.AnswerIDs()
	}
	total := ex.Stats
	return answers, perQuery, &total, nil
}
