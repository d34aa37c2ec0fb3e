package core

import (
	"strings"
	"testing"

	"xpath2sql/internal/ra"
	"xpath2sql/internal/workload"
)

func TestFlattenAlts(t *testing.T) {
	cases := []struct {
		q    string
		want int // number of alternatives
	}{
		{"a/b/c", 1},
		{"a | b", 2},
		{"(a | b)/c", 2},
		{"a/(b | c)/d", 2},
		{"(a | b)/(c | d)", 4},
		{"a//b", 1},
		{"//a", 1},
	}
	for _, tc := range cases {
		alts, err := flattenAlts(mustParse(t, tc.q))
		if err != nil {
			t.Errorf("%s: %v", tc.q, err)
			continue
		}
		if len(alts) != tc.want {
			t.Errorf("%s: %d alternatives, want %d", tc.q, len(alts), tc.want)
		}
	}
}

func TestFlattenAltsDescMark(t *testing.T) {
	alts, err := flattenAlts(mustParse(t, "a//b/c"))
	if err != nil {
		t.Fatal(err)
	}
	steps := alts[0]
	if len(steps) != 3 {
		t.Fatalf("steps = %d", len(steps))
	}
	if steps[0].desc || !steps[1].desc || steps[2].desc {
		t.Fatalf("desc marks wrong: %+v", steps)
	}
	if steps[0].label != "a" || steps[1].label != "b" || steps[2].label != "c" {
		t.Fatalf("labels wrong: %+v", steps)
	}
}

func TestFlattenAltsQualifierOnLastStep(t *testing.T) {
	alts, err := flattenAlts(mustParse(t, "a/b[c]"))
	if err != nil {
		t.Fatal(err)
	}
	steps := alts[0]
	if len(steps[0].quals) != 0 || len(steps[1].quals) != 1 {
		t.Fatalf("qualifier placement wrong: %+v", steps)
	}
	// Multi-step filter: (a/b)[c] puts the qualifier on the last step too.
	alts, err = flattenAlts(mustParse(t, "(a/b)[c]"))
	if err != nil {
		t.Fatal(err)
	}
	if len(alts[0][1].quals) != 1 {
		t.Fatalf("qualifier placement wrong: %+v", alts[0])
	}
}

// TestSQLGenRUsesRecUnion: every '//' produces a multi-relation fixpoint,
// never a single-input Φ.
func TestSQLGenRUsesRecUnion(t *testing.T) {
	prog, err := SQLGenR(mustParse(t, "gene//locus"), workload.BIOML())
	if err != nil {
		t.Fatal(err)
	}
	c := prog.Count()
	if c.RecFix != 1 {
		t.Fatalf("RecFix = %d", c.RecFix)
	}
	if c.LFP != 0 {
		t.Fatalf("LFP = %d, SQLGen-R must not use Φ", c.LFP)
	}
	// The 4-cycle BIOML component spans 7 edges: 7 joins/unions per
	// iteration inside the black box (§6.4 quotes exactly this for 4a).
	var rec *ra.RecUnion
	for _, s := range prog.Stmts {
		findRecUnion(s.Plan, &rec)
	}
	if rec == nil {
		t.Fatal("no RecUnion found")
	}
	if len(rec.Edges) != 7 {
		t.Fatalf("component edges = %d, want 7", len(rec.Edges))
	}
	if !rec.Pairs {
		t.Fatal("expected pair-mode recursion for composability")
	}
}

func findRecUnion(p ra.Plan, out **ra.RecUnion) {
	switch p := p.(type) {
	case ra.RecUnion:
		*out = &p
	default:
		for _, k := range ra.Inputs(p) {
			findRecUnion(k, out)
		}
	}
}

// TestSQLGenRGedMLEdgeCount: the GedML component spans all 11 edges (§6.4).
func TestSQLGenRGedMLEdgeCount(t *testing.T) {
	prog, err := SQLGenR(mustParse(t, "Even//Data"), workload.GedML())
	if err != nil {
		t.Fatal(err)
	}
	var rec *ra.RecUnion
	for _, s := range prog.Stmts {
		findRecUnion(s.Plan, &rec)
	}
	if rec == nil {
		t.Fatal("no RecUnion")
	}
	if len(rec.Edges) != 11 {
		t.Fatalf("edges = %d, want 11", len(rec.Edges))
	}
}

// TestSQLGenRNoRecursionForChildOnly: a child-only query uses plain joins.
func TestSQLGenRNoRecursionForChildOnly(t *testing.T) {
	prog, err := SQLGenR(mustParse(t, "dept/course/prereq/course"), workload.Dept())
	if err != nil {
		t.Fatal(err)
	}
	c := prog.Count()
	if c.RecFix != 0 {
		t.Fatalf("RecFix = %d for a non-recursive query", c.RecFix)
	}
	if c.Joins == 0 {
		t.Fatalf("no joins at all")
	}
}

// TestSQLGenRUnmatchableQuery: a label not under the root yields an empty
// program result.
func TestSQLGenRUnmatchableQuery(t *testing.T) {
	prog, err := SQLGenR(mustParse(t, "course/dept"), workload.Dept())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prog.String(), "result") {
		t.Fatal("no result statement")
	}
	// Executing on an empty DB must return nothing (trivially true) — the
	// interesting check is that translation didn't error and the plan is
	// the empty union.
	if pl := prog.Lookup("result"); pl == nil {
		t.Fatal("missing result")
	}
}

// TestSQLGenRDeferredRootFilter: a leading label step over a recursive root
// type scans the whole relation and applies σ_{F='_'} at the end (the
// black-box property: selections cannot be pushed into with…recursive).
func TestSQLGenRDeferredRootFilter(t *testing.T) {
	prog, err := SQLGenR(mustParse(t, "a/b//c/d"), workload.Cross())
	if err != nil {
		t.Fatal(err)
	}
	s := prog.String()
	if !strings.Contains(s, "σ[F='_']") {
		t.Fatalf("missing deferred root selection:\n%s", s)
	}
	// And no start-constrained Φ anywhere.
	if strings.Contains(s, "start∈") {
		t.Fatalf("SQLGen-R plans must not carry pushed constraints:\n%s", s)
	}
}
