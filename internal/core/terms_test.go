package core_test

import (
	"strings"
	"testing"

	"xpath2sql/internal/core"
	"xpath2sql/internal/difftest"
	"xpath2sql/internal/expath"
)

// TestTermEqualityIsPrintedEquality: the translator compares expressions by
// number (expath.Table.Same) where it used to compare their printed forms. For
// every pair of terms a translation of the corpus builds — the operands of
// every union among them — the number compare and the printed compare agree,
// under all three forms of rec(A, B). The one intended difference, a label and
// a variable of one name, cannot arise: no corpus type is named like a
// variable.
func TestTermEqualityIsPrintedEquality(t *testing.T) {
	pairs, perDTD := 0, 30
	if testing.Short() {
		perDTD = 8
	}
	for _, c := range corpusDTDs() {
		for _, typ := range c.d.Types() {
			if strings.HasPrefix(typ, "X") {
				t.Fatalf("%s: type %s may print like a variable", c.name, typ)
			}
		}
		r := difftest.Seed(int64(len(c.name))*31 + 5)
		for i := 0; i < perDTD; i++ {
			q := difftest.Query(r, c.d.Types(), 3)
			for _, rec := range []core.RecStrategy{core.RecFlat, core.RecCycleEX, core.RecCycleE} {
				if rec == core.RecCycleE && (i%5 != 0 || strings.HasPrefix(c.name, "rand")) {
					continue // exponential printed forms
				}
				tb, err := core.TranslationTerms(q, c.d, rec)
				if err != nil {
					t.Fatalf("%s: %s: %v", c.name, q, err)
				}
				printed := make([]string, tb.Len())
				for x := range printed {
					printed[x] = tb.QualOf(expath.Term(x)).String()
				}
				for a := range printed {
					for b := a + 1; b < len(printed); b++ {
						if tb.Same(expath.Term(a), expath.Term(b)) != (printed[a] == printed[b]) {
							t.Fatalf("%s [rec %d] %s: terms %d and %d print %q and %q, Same says %v",
								c.name, rec, q, a, b, printed[a], printed[b], tb.Same(expath.Term(a), expath.Term(b)))
						}
						pairs++
					}
				}
			}
		}
	}
	t.Logf("%d pairs of terms compared", pairs)
}
