package core_test

import (
	"slices"
	"testing"

	"xpath2sql/internal/core"
	"xpath2sql/internal/dtd"
	"xpath2sql/internal/shred"
	"xpath2sql/internal/views"
	"xpath2sql/internal/workload"
	"xpath2sql/internal/xmlgen"
	"xpath2sql/internal/xpath"
)

// TestTranslateOverContainedDTD: translating over a sub-DTD D1 and executing
// against the shredded data of a containing DTD D2 implements the view
// semantics of §3.4 — the setting of Exp-4, where the Table 4 cases are
// translated over BIOML extracts but run on the full 4-cycle dataset. All
// strategies must agree with the view-extraction oracle. This is the
// regression test for the source-typed flat closure (expath.Edge): a bare
// label closure would follow D2-only edges.
func TestTranslateOverContainedDTD(t *testing.T) {
	pairs := []struct {
		name   string
		d1, d2 *dtd.DTD
		qs     []string
	}{
		{"bioml-a-in-d", workload.BIOMLa(), workload.BIOMLd(),
			[]string{"gene//locus", "gene//dna", "gene//clone[dna]", "//locus"}},
		{"bioml-b-in-d", workload.BIOMLb(), workload.BIOMLd(),
			[]string{"gene//locus", "gene//dna"}},
		{"fig3", workload.Fig3D(), workload.Fig3DPrime(),
			[]string{"//C", "r//A", "r/A//B", "//."}},
		{"figD", workload.FigD1(4), workload.FigD2(4),
			[]string{"//A4", "A1//A3", "A1/A2//A4"}},
	}
	for _, pc := range pairs {
		t.Run(pc.name, func(t *testing.T) {
			if !pc.d1.BuildGraph().ContainedIn(pc.d2.BuildGraph()) {
				t.Fatal("containment assumption broken")
			}
			for seed := int64(0); seed < 3; seed++ {
				doc, err := xmlgen.Generate(pc.d2, xmlgen.Options{XL: 6, XR: 3, Seed: seed, MaxNodes: 250})
				if err != nil {
					t.Fatal(err)
				}
				db, err := shred.Shred(doc, pc.d2)
				if err != nil {
					t.Fatal(err)
				}
				for _, qs := range pc.qs {
					q := xpath.MustParse(qs)
					wantIDs, err := views.Answer(q, pc.d1, doc)
					if err != nil {
						t.Fatalf("views.Answer(%s): %v", qs, err)
					}
					want := make([]int, len(wantIDs))
					for i, id := range wantIDs {
						want[i] = int(id)
					}
					for _, s := range allStrategies {
						opts := core.DefaultOptions()
						opts.Strategy = s
						res, err := core.Translate(q, pc.d1, opts)
						if err != nil {
							t.Fatalf("[%v] Translate(%s): %v", s, qs, err)
						}
						got, _, err := res.Execute(db)
						if err != nil {
							t.Fatalf("[%v] Execute(%s): %v", s, qs, err)
						}
						if !slices.Equal(got, want) {
							t.Errorf("[%v] seed %d, %s on view: got %v, want %v", s, seed, qs, got, want)
						}
					}
				}
			}
		})
	}
}
