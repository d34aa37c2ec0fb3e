package core

import (
	"fmt"

	"xpath2sql/internal/dtd"
	"xpath2sql/internal/expath"
	"xpath2sql/internal/ra"
	"xpath2sql/internal/xpath"
)

// This file keeps the common-sub-query extraction as it stood through PR 23 —
// every shareable node keyed by its printed form, three passes, each printing
// whole subtrees — verbatim, as the oracle for the interner-based
// ExtractCommon (TestExtractCommonMatchesStringKeyed). Only the names changed
// (an "oracle" prefix), so the copy shares nothing with the code it checks.

// What the external test package needs of the unexported pipeline: the
// oracle, the two producers of programs that have not been through
// ExtractCommon yet, and ExtractCommon on a caller's interner.
var (
	ExtractCommonByString = extractCommonByString
	PushSelections        = pushSelections
	ExtractCommonWith     = func(p *ra.Program, in *ra.Interner) { (&cse{in: in}).extract(p) }
)

func extractCommonByString(p *ra.Program) {
	counts := map[string]int{}
	var tally func(pl ra.Plan)
	tally = func(pl ra.Plan) {
		if oracleShareable(pl) {
			counts[pl.String()]++
		}
		for _, k := range oracleChildren(pl) {
			tally(k)
		}
	}
	for _, s := range p.Stmts {
		tally(s.Plan)
	}
	shared := map[string]string{} // plan key -> temp name
	// Reuse existing statements as the shared definition of their plan.
	for _, s := range p.Stmts {
		if oracleShareable(s.Plan) {
			if _, dup := shared[s.Plan.String()]; !dup {
				shared[s.Plan.String()] = s.Name
				counts[s.Plan.String()] += 2 // force dedup against the stmt
			}
		}
	}
	var extra []ra.Stmt
	n := 0
	var rewrite func(pl ra.Plan) ra.Plan
	rewrite = func(pl ra.Plan) ra.Plan {
		if oracleShareable(pl) && counts[pl.String()] >= 2 {
			key := pl.String()
			if name, ok := shared[key]; ok {
				return ra.Temp{Name: name}
			}
			n++
			name := fmt.Sprintf("cse%d", n)
			shared[key] = name
			extra = append(extra, ra.Stmt{Name: name, Plan: oracleRebuild(pl, oracleRewriteKids(pl, rewrite))})
			return ra.Temp{Name: name}
		}
		return oracleRebuild(pl, oracleRewriteKids(pl, rewrite))
	}
	for i := range p.Stmts {
		p.Stmts[i].Plan = oracleRebuild(p.Stmts[i].Plan, oracleRewriteKids(p.Stmts[i].Plan, rewrite))
	}
	p.Stmts = append(p.Stmts, extra...)
}

// shareable reports whether a plan is worth materializing as a temp.
func oracleShareable(pl ra.Plan) bool {
	switch pl.(type) {
	case ra.Compose, ra.UnionAll, ra.Fix, ra.Semijoin, ra.Antijoin, ra.Diff,
		ra.TypeFilter, ra.IdentOf, ra.RecUnion, ra.DescScan:
		return true
	}
	return false
}

// children returns a plan's direct sub-plans.
func oracleChildren(pl ra.Plan) []ra.Plan {
	switch pl := pl.(type) {
	case ra.Compose:
		return []ra.Plan{pl.L, pl.R}
	case ra.UnionAll:
		return pl.Kids
	case ra.Fix:
		out := []ra.Plan{pl.Seed}
		if pl.Start != nil {
			out = append(out, pl.Start)
		}
		if pl.End != nil {
			out = append(out, pl.End)
		}
		return out
	case ra.DescScan:
		out := []ra.Plan{pl.Alt}
		if pl.Start != nil {
			out = append(out, pl.Start)
		}
		if pl.End != nil {
			out = append(out, pl.End)
		}
		return out
	case ra.SelectVal:
		return []ra.Plan{pl.Child}
	case ra.SelectRoot:
		return []ra.Plan{pl.Child}
	case ra.Semijoin:
		return []ra.Plan{pl.L, pl.R}
	case ra.Antijoin:
		return []ra.Plan{pl.L, pl.R}
	case ra.Diff:
		return []ra.Plan{pl.L, pl.R}
	case ra.IdentOf:
		return []ra.Plan{pl.Child}
	case ra.TypeFilter:
		return []ra.Plan{pl.Child}
	case ra.RecUnion:
		var out []ra.Plan
		for _, t := range pl.Init {
			out = append(out, t.Plan)
		}
		for _, e := range pl.Edges {
			out = append(out, e.Rel)
		}
		return out
	}
	return nil
}

// rewriteKids maps f over a plan's direct sub-plans.
func oracleRewriteKids(pl ra.Plan, f func(ra.Plan) ra.Plan) []ra.Plan {
	kids := oracleChildren(pl)
	out := make([]ra.Plan, len(kids))
	for i, k := range kids {
		out[i] = f(k)
	}
	return out
}

// rebuild reconstructs a plan with replaced sub-plans (in children order).
func oracleRebuild(pl ra.Plan, kids []ra.Plan) ra.Plan {
	switch pl := pl.(type) {
	case ra.Compose:
		return ra.Compose{L: kids[0], R: kids[1]}
	case ra.UnionAll:
		return ra.UnionAll{Kids: kids}
	case ra.Fix:
		f := ra.Fix{Seed: kids[0], Desc: pl.Desc}
		i := 1
		if pl.Start != nil {
			f.Start = kids[i]
			i++
		}
		if pl.End != nil {
			f.End = kids[i]
		}
		return f
	case ra.DescScan:
		d := ra.DescScan{From: pl.From, To: pl.To, Alt: kids[0]}
		i := 1
		if pl.Start != nil {
			d.Start = kids[i]
			i++
		}
		if pl.End != nil {
			d.End = kids[i]
		}
		return d
	case ra.SelectVal:
		return ra.SelectVal{Child: kids[0], Val: pl.Val}
	case ra.SelectRoot:
		return ra.SelectRoot{Child: kids[0]}
	case ra.Semijoin:
		return ra.Semijoin{L: kids[0], R: kids[1]}
	case ra.Antijoin:
		return ra.Antijoin{L: kids[0], R: kids[1]}
	case ra.Diff:
		return ra.Diff{L: kids[0], R: kids[1]}
	case ra.IdentOf:
		return ra.IdentOf{Child: kids[0], OnF: pl.OnF}
	case ra.TypeFilter:
		return ra.TypeFilter{Child: kids[0], Rel: pl.Rel, OnF: pl.OnF}
	case ra.RecUnion:
		out := ra.RecUnion{Pairs: pl.Pairs, ResultTag: pl.ResultTag}
		i := 0
		for _, t := range pl.Init {
			out.Init = append(out.Init, ra.Tagged{Tag: t.Tag, Plan: kids[i]})
			i++
		}
		for _, e := range pl.Edges {
			out.Edges = append(out.Edges, ra.RecEdge{FromTag: e.FromTag, ToTag: e.ToTag, Rel: kids[i]})
			i++
		}
		return out
	default:
		return pl
	}
}

// TranslationTerms translates q as XPathToEXp does and hands back the term
// table the translation built, for tests that inspect every term of it.
func TranslationTerms(q xpath.Path, d *dtd.DTD, strategy RecStrategy) (*expath.Table, error) {
	tr := newExTranslator(NewSchema(d).g, strategy)
	result := expath.ZeroTerm
	for _, x := range tr.translate(tr.number(q, xpath.Print(q)), 0) {
		result = tr.t.Union(result, x.e)
	}
	_, err := tr.t.Prune(append(tr.recVars, tr.vars...), result)
	return tr.t, err
}
