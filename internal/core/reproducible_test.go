package core_test

import (
	"strings"
	"testing"

	"xpath2sql/internal/core"
	"xpath2sql/internal/difftest"
	"xpath2sql/internal/dtd"
	"xpath2sql/internal/ra"
	"xpath2sql/internal/workload"
)

// corpusDTDs is the DTD set the translation-text tests share: the paper's
// workloads plus randomly synthesized recursive DTDs.
func corpusDTDs() []struct {
	name string
	d    *dtd.DTD
} {
	return []struct {
		name string
		d    *dtd.DTD
	}{
		{"dept", workload.Dept()}, {"cross", workload.Cross()},
		{"bioml", workload.BIOML()}, {"gedml", workload.GedML()},
		{"fig3d", workload.Fig3DPrime()},
		{"rand1", difftest.RecDTD(difftest.Seed(1)).DTD},
		{"rand2", difftest.RecDTD(difftest.Seed(2)).DTD},
		{"rand3", difftest.RecDTD(difftest.Seed(3)).DTD},
	}
}

// corpusOptions is every translation form: the three strategies plus the
// nested equation system of Fig 7.
func corpusOptions() []core.Options {
	var out []core.Options
	for _, s := range allStrategies {
		o := core.DefaultOptions()
		o.Strategy = s
		out = append(out, o)
	}
	nested := core.DefaultOptions()
	nested.NestedRec = true
	return append(out, nested)
}

// TestTranslateReproducible: translation is a function of (query, DTD,
// options) down to the byte. Every query of the differential generator,
// translated twice, must print the same program and render the same SQL in
// both dialects — no counter-named variable, statement order or union operand
// order may depend on Go's map iteration order. (At PR 23, 765 of 8 000 random
// queries differed between two translations.)
func TestTranslateReproducible(t *testing.T) {
	perDTD := 60
	if testing.Short() {
		perDTD = 15
	}
	for _, c := range corpusDTDs() {
		r := difftest.Seed(int64(len(c.name)) * 7919)
		for i := 0; i < perDTD; i++ {
			q := difftest.Query(r, c.d.Types(), 3)
			for _, opts := range corpusOptions() {
				if opts.Strategy == core.StrategyCycleE && (i >= 5 || strings.HasPrefix(c.name, "rand")) {
					continue // exponential plans; the code path is CycleEX's
				}
				a, err := core.Translate(q, c.d, opts)
				if err != nil {
					t.Fatalf("%s: Translate(%s): %v", c.name, q, err)
				}
				b, err := core.Translate(q, c.d, opts)
				if err != nil {
					t.Fatalf("%s: Translate(%s): %v", c.name, q, err)
				}
				if a.Program.String() != b.Program.String() {
					t.Fatalf("%s [%v nested=%v] %s: two translations differ\nfirst:\n%s\nsecond:\n%s",
						c.name, opts.Strategy, opts.NestedRec, q, a.Program, b.Program)
				}
				for _, dialect := range []ra.Dialect{ra.DialectDB2, ra.DialectOracle} {
					ro := ra.SQLRenderOptions{Dialect: dialect}
					if a.Program.SQL(ro) != b.Program.SQL(ro) {
						t.Fatalf("%s [%v] %s: two translations render different %v SQL", c.name, opts.Strategy, q, dialect)
					}
				}
			}
		}
	}
}
