package views

import (
	"fmt"
	"sort"
	"testing"

	"xpath2sql/internal/difftest"
	"xpath2sql/internal/dtd"
	"xpath2sql/internal/workload"
	"xpath2sql/internal/xmlgen"
	"xpath2sql/internal/xmltree"
	"xpath2sql/internal/xpath"
)

// TestExample32 reproduces Example 3.2: D ⊆ D′ (Fig 3a/b), query // on the
// view must exclude C children of B nodes in the source.
func TestExample32(t *testing.T) {
	d := workload.Fig3D()
	src, err := xmltree.Parse(`<r>
  <A>
    <B><A><C>x</C></A><C>hidden</C></B>
    <C>y</C>
  </A>
</r>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.Fig3DPrime().Validate(src); err != nil {
		t.Fatalf("source does not conform to D': %v", err)
	}
	// Q = //. — all nodes of the view.
	q := xpath.MustParse("//.")
	got, err := Answer(q, d, src)
	if err != nil {
		t.Fatal(err)
	}
	// The C labeled "hidden" is a child of a B node: edge (B, C) is not in
	// D, so it is not part of the view.
	var hidden xmltree.NodeID
	for _, n := range src.Nodes() {
		if n.Val == "hidden" {
			hidden = n.ID
		}
	}
	if hidden == 0 {
		t.Fatal("test doc missing hidden node")
	}
	for _, id := range got {
		if id == hidden {
			t.Fatalf("view query returned the hidden C node")
		}
	}
	// Everything else is in the view: total nodes - 1.
	if len(got) != src.Size()-1 {
		t.Fatalf("answer size = %d, want %d", len(got), src.Size()-1)
	}
}

// TestExample33 reproduces Example 3.3: D1 ⊆ D2 with the B-bypass; //An on
// the view returns only An nodes reachable without going through B.
func TestExample33(t *testing.T) {
	n := 4
	d1 := workload.FigD1(n)
	d2 := workload.FigD2(n)
	if !d1.BuildGraph().ContainedIn(d2.BuildGraph()) {
		t.Fatal("D1 not contained in D2")
	}
	src, err := xmltree.Parse(`<A1>
  <A4>v</A4>
  <B><A4>throughB</A4></B>
  <A2><A4>v2</A4><B><A4>alsoThroughB</A4></B></A2>
</A1>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Validate(src); err != nil {
		t.Fatalf("source invalid for D2: %v", err)
	}
	got, err := Answer(xpath.MustParse("//A4"), d1, src)
	if err != nil {
		t.Fatal(err)
	}
	var want []xmltree.NodeID
	for _, node := range src.Nodes() {
		if node.Label == "A4" {
			through := false
			for m := node.Parent; m != nil; m = m.Parent {
				if m.Label == "B" {
					through = true
				}
			}
			if !through {
				want = append(want, node.ID)
			}
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("//A4 on view = %v, want %v", got, want)
	}
}

// TestViewEquivalenceRandom is the property behind §3.4: for random source
// documents of D2 and random queries over D1, answering on the source via
// Rewrite equals evaluating on the extracted view (mapped through σ).
func TestViewEquivalenceRandom(t *testing.T) {
	pairs := []struct {
		name   string
		d1, d2 *dtd.DTD
	}{
		{"fig3", workload.Fig3D(), workload.Fig3DPrime()},
		{"figD", workload.FigD1(4), workload.FigD2(4)},
		{"bioml", workload.BIOMLa(), workload.BIOMLd()},
	}
	for _, pc := range pairs {
		t.Run(pc.name, func(t *testing.T) {
			r := difftest.Seed(31)
			for seed := int64(0); seed < 3; seed++ {
				src, err := xmlgen.Generate(pc.d2, xmlgen.Options{XL: 5, XR: 3, Seed: seed, MaxNodes: 200})
				if err != nil {
					t.Fatal(err)
				}
				view, sigma, err := Extract(src, pc.d1)
				if err != nil {
					t.Fatal(err)
				}
				if err := pc.d1.BuildGraph().ContainedIn(pc.d2.BuildGraph()); !err {
					t.Fatal("containment violated")
				}
				for i := 0; i < 20; i++ {
					// No text()=c: Extract and Generate draw values apart.
					q := difftest.TextFreeQuery(r, pc.d1.Types(), 3)
					// Answer on the source.
					gotSrc, err := Answer(q, pc.d1, src)
					if err != nil {
						t.Fatalf("Answer(%s): %v", q, err)
					}
					// Oracle on the materialized view, mapped through σ.
					viewRes := xpath.EvalDoc(q, view)
					var want []int
					for _, vid := range viewRes.IDs() {
						want = append(want, int(sigma[vid]))
					}
					sort.Ints(want)
					var got []int
					for _, id := range gotSrc {
						got = append(got, int(id))
					}
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("seed %d query %s: source answer %v, view oracle %v", seed, q, got, want)
					}
				}
			}
		})
	}
}

func TestExtractErrors(t *testing.T) {
	d := workload.Fig3D()
	wrong, _ := xmltree.Parse(`<x/>`)
	if _, _, err := Extract(wrong, d); err == nil {
		t.Fatal("mismatched root accepted")
	}
}
