package core

import (
	"testing"

	"xpath2sql/internal/difftest"
	"xpath2sql/internal/dtd"
	"xpath2sql/internal/ra"
	"xpath2sql/internal/workload"
	"xpath2sql/internal/xpath"
)

// cowCorpus is queries of the differential generator over the workload DTDs
// and a random recursive one, each with a plan of a few operators under the
// default options.
func cowCorpus(t *testing.T) []struct {
	d *dtd.DTD
	q xpath.Path
} {
	var out []struct {
		d *dtd.DTD
		q xpath.Path
	}
	for i, d := range []*dtd.DTD{workload.Dept(), workload.Cross(), workload.GedML(), workload.BIOML(),
		difftest.RecDTD(difftest.Seed(5)).DTD} {
		r := difftest.Seed(int64(i) + 11)
		for n := 0; n < 12; {
			q := difftest.Query(r, d.Types(), 3)
			res, err := Translate(q, d, DefaultOptions())
			if err != nil {
				t.Fatalf("Translate(%s): %v", q, err)
			}
			if res.Program.Count().All() >= 3 {
				out = append(out, struct {
					d *dtd.DTD
					q xpath.Path
				}{d, q})
				n++
			}
		}
	}
	return out
}

// TestRerunAllocatesNothing: every pass rewrites copy-on-change, so
// re-running sinkRoot, opt or ExtractCommon's rewrite over a program they
// have already rewritten changes nothing, and allocates nothing — no node,
// no operand slice, no statement.
func TestRerunAllocatesNothing(t *testing.T) {
	for _, c := range cowCorpus(t) {
		res, err := Translate(c.q, c.d, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		p := res.Program
		before := p.String()
		cs := &cse{in: ra.NewInterner()}
		if cs.extract(p); p.String() != before {
			t.Fatalf("%s: ExtractCommon again changed\n%s\ninto\n%s", c.q, before, p)
		}
		rewrite := testing.AllocsPerRun(5, func() {
			cs.pos = 0
			for _, s := range p.Stmts {
				if _, changed := cs.rewriteInputs(s.Plan); changed {
					t.Fatalf("%s: ExtractCommon's rewrite changed %s", c.q, s.Name)
				}
			}
		})
		o := &optimizer{temps{prefix: "opt"}}
		for _, s := range p.Stmts {
			sink := testing.AllocsPerRun(5, func() {
				if _, changed := sinkRoot(s.Plan); changed {
					t.Fatalf("%s: sinkRoot changed %s", c.q, s.Name)
				}
			})
			opt := testing.AllocsPerRun(5, func() {
				if _, changed := o.opt(s.Plan); changed {
					t.Fatalf("%s: opt changed %s", c.q, s.Name)
				}
			})
			if sink != 0 || opt != 0 || rewrite != 0 {
				t.Errorf("%s: statement %s: re-running allocates %v (sinkRoot), %v (opt), %v (ExtractCommon's rewrite of the program)",
					c.q, s.Name, sink, opt, rewrite)
			}
		}
	}
}

// TestPassesLeaveInputsAlone: a pass run on a copy of a program — its own
// Stmts, the plans shared — leaves the original as it printed, so a program
// the plan cache holds can be optimized and extracted from by any number of
// callers at once.
func TestPassesLeaveInputsAlone(t *testing.T) {
	check := func(name string, p0 *ra.Program) {
		want0 := p0.String()
		p3 := *p0
		if Optimize(&p3); p0.String() != want0 {
			t.Fatalf("%s: Optimize wrote into its input:\n%s\nnow\n%s", name, want0, p0)
		}
		// Inlined first, the program hands pushSelections the very nodes it
		// holds, not copies InlineSingleUse makes on the way to a temp.
		InlineSingleUse(p0)
		want0 = p0.String()
		p1 := *p0
		pushSelections(&p1)
		want1 := p1.String()
		p2 := p1
		ExtractCommon(&p2)
		if got := p0.String(); got != want0 {
			t.Fatalf("%s: sinkRoot, opt or push wrote into its input:\n%s\nnow\n%s", name, want0, got)
		}
		if got := p1.String(); got != want1 {
			t.Fatalf("%s: ExtractCommon wrote into its input:\n%s\nnow\n%s", name, want1, got)
		}
		if p2.String() != p3.String() {
			t.Fatalf("%s: Optimize is not pushSelections then ExtractCommon:\n%s\n%s", name, &p3, &p2)
		}
	}
	unpushed := DefaultOptions()
	unpushed.SQL.PushSelections = false
	for _, c := range cowCorpus(t) {
		res, err := Translate(c.q, c.d, unpushed)
		if err != nil {
			t.Fatal(err)
		}
		check(c.q.String(), res.Program)
	}
	// A shape the generator seldom draws: the start constraint reaches two
	// fixpoints through a union.
	fix := func(rel string) ra.Plan { return ra.Fix{Seed: ra.Base{Rel: rel}, Desc: true} }
	check("hand-built", &ra.Program{Result: "result", Stmts: []ra.Stmt{{Name: "result",
		Plan: ra.Semijoin{L: ra.Base{Rel: "R_a"}, R: ra.UnionAll{Kids: []ra.Plan{fix("R_b"), fix("R_c")}}}}}})
}
