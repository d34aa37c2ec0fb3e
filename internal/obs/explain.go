package obs

import (
	"fmt"
	"strings"
	"time"

	"xpath2sql/internal/ra"
)

// OpKind names the root operator of a plan, the Op field of StmtEvent.
func OpKind(pl ra.Plan) string {
	switch pl.(type) {
	case ra.Base:
		return "scan"
	case ra.Temp:
		return "temp"
	case ra.Ident:
		return "ident"
	case ra.IdentOf:
		return "identof"
	case ra.Compose:
		return "compose"
	case ra.UnionAll:
		return "union"
	case ra.Fix:
		return "fix"
	case ra.SelectVal:
		return "select"
	case ra.SelectRoot:
		return "selroot"
	case ra.Semijoin:
		return "semijoin"
	case ra.Antijoin:
		return "antijoin"
	case ra.Diff:
		return "diff"
	case ra.RootSeed:
		return "rootseed"
	case ra.TypeFilter:
		return "typefilter"
	case ra.RecUnion:
		return "recunion"
	case ra.DescScan:
		return "descscan"
	}
	return fmt.Sprintf("%T", pl)
}

// Explain renders the program EXPLAIN ANALYZE style: one line per RA
// statement, annotated — when the trace observed it — with input/output
// cardinalities, tuples produced, fixpoint iteration count and wall time.
// Statements the (lazy or pruned) execution never evaluated are marked
// "not run". A nil trace renders the bare plan. A non-nil cache adds the
// plan-cache counters to the footer, so a trace read in isolation shows
// whether its translation was served from the prepared-query cache.
//
// Events that name no statement of the program — a cluster router's one
// "gather" per answering shard — follow the statements, one line each, and
// stay out of the footer's totals. A trace holding only those is a fleet's:
// the statements ran, on the shards, and are marked so.
func Explain(p *ra.Program, t *Trace, cache *CacheStats) string {
	var b strings.Builder
	var stmts Trace
	var others []StmtEvent
	if t != nil {
		inPlan := make(map[string]bool, len(p.Stmts))
		for _, s := range p.Stmts {
			inPlan[s.Name] = true
		}
		for _, ev := range t.Events {
			if inPlan[ev.Stmt] {
				stmts.Add(ev)
			} else {
				others = append(others, ev)
			}
		}
		t = &stmts
	}
	notRun := "  (not run)\n"
	if len(stmts.Events) == 0 && len(others) > 0 {
		notRun, t = "  (run on the shards)\n", nil // and no totals to report
	}
	for i, s := range p.Stmts {
		plan := s.Plan.String()
		if r := []rune(plan); len(r) > 56 {
			plan = string(r[:53]) + "..."
		}
		fmt.Fprintf(&b, "%3d  %-14s %-11s %-58s", i+1, s.Name, OpKind(s.Plan), plan)
		var ev *StmtEvent
		if t != nil {
			ev = t.Event(s.Name)
		}
		if ev == nil {
			b.WriteString(notRun)
			continue
		}
		fmt.Fprintf(&b, "  in=%-8d out=%-8d tuples=%-8d iters=%-5d %v",
			ev.In, ev.Out, ev.Ops.TuplesOut, ev.Ops.LFPIters, ev.Wall.Round(time.Microsecond))
		if ev.Ops.DescScans > 0 {
			fmt.Fprintf(&b, " descscans=%d", ev.Ops.DescScans)
		}
		if ev.Ops.StairScans > 0 {
			fmt.Fprintf(&b, " stairscans=%d", ev.Ops.StairScans)
		}
		if ev.Ops.ExistsProbes > 0 {
			fmt.Fprintf(&b, " exists=%d", ev.Ops.ExistsProbes)
		}
		b.WriteString("\n")
	}
	for _, ev := range others {
		fmt.Fprintf(&b, "     %-14s %-11s %-58s  out=%-8d %v\n", ev.Stmt, ev.Op, "", ev.Out, ev.Wall.Round(time.Microsecond))
	}
	fmt.Fprintf(&b, "result: %s", p.Result)
	if t != nil {
		tot := t.Totals()
		fmt.Fprintf(&b, "   [%d statements run, %d tuples, %d joins, %d Φ (%d iterations), %v]",
			tot.Stmts, tot.Ops.TuplesOut, tot.Ops.Joins, tot.Ops.LFPs, tot.Ops.LFPIters, tot.Wall.Round(time.Microsecond))
	}
	if cache != nil {
		fmt.Fprintf(&b, "   [%s]", cache)
	}
	b.WriteString("\n")
	return b.String()
}
