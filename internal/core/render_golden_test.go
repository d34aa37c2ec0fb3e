package core_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"xpath2sql/internal/core"
	"xpath2sql/internal/difftest"
	"xpath2sql/internal/expath"
	"xpath2sql/internal/ra"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files (render_golden.txt, extended_xpath_golden.txt) from the code under test")

const (
	renderGoldenPath = "../ra/testdata/render_golden.txt"
	expathGoldenPath = "testdata/extended_xpath_golden.txt"
)

// sum is "byte length:FNV-64a" of a rendered text.
func sum(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%d:%016x", len(s), h.Sum64())
}

// goldenCase is one program of the corpus with the options it renders under
// (the dialect is filled in per line).
type goldenCase struct {
	name string
	prog *ra.Program
	opts ra.SQLRenderOptions
	eq   *expath.Query // the extended-XPath form of an X-form or nested program
}

// handBuilt covers what no translation produces: every operator of ra in
// every position a renderer treats specially — constraints that are whole
// plans (they consume aliases before the operand whose text precedes theirs),
// both RecUnion tuple semantics, set operations as operands of
// set operations, the empty union, quotes in literals.
func handBuilt() []goldenCase {
	b := func(n string) ra.Plan { return ra.Base{Rel: "R_" + n} }
	join := ra.Compose{L: b("a"), R: ra.Semijoin{L: b("b"), R: b("c")}}
	sel := ra.SelectVal{Child: ra.IdentOf{Child: b("d"), OnF: true}, Val: "o'brien"}
	var out []goldenCase
	add := func(name string, opts ra.SQLRenderOptions, stmts ...ra.Stmt) {
		out = append(out, goldenCase{name: name, opts: opts,
			prog: &ra.Program{Stmts: stmts, Result: stmts[len(stmts)-1].Name}})
	}
	// "track=false" stays in the names: the golden file's lines carry them.
	for i, c := range []struct{ start, end ra.Plan }{
		{nil, nil}, {join, nil}, {nil, sel}, {join, sel}, {ra.Temp{Name: "seed"}, ra.Temp{Name: "seed"}},
	} {
		fix := ra.Fix{Seed: ra.UnionAll{Kids: []ra.Plan{ra.Temp{Name: "seed"}, join}}, Start: c.start, End: c.end}
		add(fmt.Sprintf("fix/track=false/%d", i), ra.SQLRenderOptions{MaxRecIters: i},
			ra.Stmt{Name: "seed", Plan: ra.TypeFilter{Child: b("e"), Rel: "R_f", OnF: true}},
			ra.Stmt{Name: "result", Plan: ra.SelectRoot{Child: ra.Compose{L: fix, R: ra.Compose{L: fix, R: b("g")}}}})
		add(fmt.Sprintf("desc/track=false/%d", i), ra.SQLRenderOptions{TempPrefix: "x_"},
			ra.Stmt{Name: "result", Plan: ra.Antijoin{
				L: ra.DescScan{From: "R_a", To: "R_b", Alt: ra.Compose{L: fix, R: sel}, Start: c.start, End: c.end},
				R: ra.DescScan{From: "R_a", To: "R_b", Alt: ra.Fix{Seed: fix, Desc: true}}}})
	}
	for _, pairs := range []bool{false, true} {
		for _, tag := range []string{"", "it's"} {
			rec := ra.RecUnion{
				Init:  []ra.Tagged{{Tag: "a", Plan: join}, {Tag: "it's", Plan: ra.RootSeed{}}},
				Edges: []ra.RecEdge{{FromTag: "a", ToTag: "b", Rel: sel}, {FromTag: "b", ToTag: "it's", Rel: b("h")}},
				Pairs: pairs, ResultTag: tag,
			}
			add(fmt.Sprintf("recunion/pairs=%v/tag=%q", pairs, tag), ra.SQLRenderOptions{},
				ra.Stmt{Name: "T_X[1,2,3]", Plan: ra.RecUnion{Init: rec.Init[:1], Pairs: pairs, ResultTag: tag}},
				ra.Stmt{Name: "result", Plan: ra.UnionAll{Kids: []ra.Plan{rec, ra.Temp{Name: "T_X[1,2,3]"}, rec}}})
		}
	}
	u := ra.UnionAll{Kids: []ra.Plan{b("i"), b("j")}}
	add("setops", ra.SQLRenderOptions{NodesTable: "nodes"},
		ra.Stmt{Name: "fix", Plan: ra.UnionAll{}},
		ra.Stmt{Name: "fix_2", Plan: ra.UnionAll{Kids: []ra.Plan{ra.Ident{}}}},
		ra.Stmt{Name: "late", Plan: ra.Diff{L: ra.Diff{L: u, R: ra.Temp{Name: "early"}}, R: ra.UnionAll{Kids: []ra.Plan{u, ra.Diff{L: b("k"), R: u}, ra.Fix{Seed: b("l")}}}}},
		ra.Stmt{Name: "early", Plan: ra.IdentOf{Child: ra.TypeFilter{Child: ra.Temp{Name: "fix"}, Rel: "R_m"}}},
		ra.Stmt{Name: "result", Plan: ra.UnionAll{Kids: []ra.Plan{ra.Temp{Name: "late"}, ra.Temp{Name: "fix_2"}, ra.Fix{Seed: b("l")}}}})
	return out
}

// renderCorpus is the fixed, seeded corpus of the golden file: 40 random
// queries with a non-trivial plan over each corpus DTD, cycling through the
// translation forms (default, SQLGen-R, nested Fig 7 equations, naive R_id, unpushed
// selections) and render options (recursion cap, temp prefix, catalog name),
// and the hand-built programs.
func renderCorpus(t *testing.T) []goldenCase {
	var out []goldenCase
	for _, c := range corpusDTDs() {
		r := difftest.Seed(int64(len(c.name))*104729 + 1)
		for i := 0; i < 40; {
			q := difftest.Query(r, c.d.Types(), 3)
			opts, form := core.DefaultOptions(), "X"
			switch i % 8 {
			case 0:
				opts.Strategy, form = core.StrategySQLGenR, "R"
			case 1:
				opts.NestedRec, form = true, "nested"
			case 2:
				opts.SQL.UseRid, form = true, "rid"
			case 3:
				opts.SQL.PushSelections, form = false, "unpushed"
			}
			res, err := core.Translate(q, c.d, opts)
			if err != nil {
				t.Fatalf("%s: Translate(%s): %v", c.name, q, err)
			}
			if res.Program.Count().All() < 3 {
				continue // the generator does not know the DTD: most draws are empty on it
			}
			var ro ra.SQLRenderOptions
			if i%5 == 0 {
				ro.MaxRecIters = 7
			}
			if i%7 == 0 {
				ro.TempPrefix = "r9_"
			}
			if i%11 == 0 {
				ro.NodesTable = "nodes"
			}
			name := fmt.Sprintf("%s/%s/%s", c.name, form, q)
			gc := goldenCase{name: name, prog: res.Program, opts: ro}
			if form == "X" || form == "nested" {
				gc.eq = res.EQ
			}
			out = append(out, gc)
			i++
		}
	}
	return append(out, handBuilt()...)
}

// TestRenderGolden pins the SQL text of a fixed corpus, byte for byte, to
// what the renderer produced before it was rewritten to write each statement
// once (PR 24): one line per (program, dialect) with the length and FNV-64a
// of Program.SQL, of the session statements, and of the list of (table,
// length, FNV-64a) of every statement of RenderSQL — the per-statement sums
// folded into one, which keeps the file at a seventh of its size and still
// flips the line when one statement changes by a byte. Run with -update to
// regenerate after an intended change of text.
func TestRenderGolden(t *testing.T) {
	var b strings.Builder
	cases := renderCorpus(t)
	for _, c := range cases {
		for _, dialect := range []ra.Dialect{ra.DialectDB2, ra.DialectOracle} {
			opts := c.opts
			opts.Dialect = dialect
			rs, err := c.prog.RenderSQL(opts)
			if err != nil {
				t.Fatalf("%s: RenderSQL(%v): %v", c.name, dialect, err)
			}
			var stmts strings.Builder
			for _, s := range rs.Stmts {
				stmts.WriteString(s.Table + "=" + sum(s.SQL) + ",")
			}
			fmt.Fprintf(&b, "%s\t%v\t%s\t%s\t%d stmts\t%s\n", c.name, dialect, sum(c.prog.SQL(opts)),
				sum(strings.Join(append(rs.Session, rs.SessionReset...), ";")+"|"+rs.ResultTable+"|"+rs.ResultQuery),
				len(rs.Stmts), sum(stmts.String()))
		}
	}
	checkGolden(t, renderGoldenPath, b.String(), len(cases))
}

// TestExtendedXPathGolden pins the extended-XPath text /v1/translate returns
// (Result.EQ.String()) for every X-form and nested program of the corpus, one
// "length:FNV-64a" line per program, as the code printed it before the
// translator numbered its sub-queries and expressions. Run with -update to
// regenerate after an intended change of text.
func TestExtendedXPathGolden(t *testing.T) {
	var b strings.Builder
	n := 0
	for _, c := range renderCorpus(t) {
		if c.eq != nil {
			fmt.Fprintf(&b, "%s\t%s\t%d eqs\n", c.name, sum(c.eq.String()), len(c.eq.Eqs))
			n++
		}
	}
	checkGolden(t, expathGoldenPath, b.String(), n)
}

// checkGolden compares got with the golden file at path line by line, or
// rewrites the file under -update.
func checkGolden(t *testing.T, path, got string, cases int) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d lines (%d programs) to %s", strings.Count(got, "\n"), cases, path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("corpus has %d lines, golden file %d: the corpus itself changed", len(gl), len(wl))
	}
	bad := 0
	for i := range gl {
		if gl[i] != wl[i] {
			if bad++; bad <= 5 {
				t.Errorf("line %d differs\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
	}
	t.Fatalf("%d of %d lines differ from %s", bad, len(gl), path)
}
