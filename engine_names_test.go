package xpath2sql_test

import (
	"context"
	"fmt"
	"testing"

	"xpath2sql"
)

// TestTypesNamedLikeVariables: element types named like the variables the
// translator generates (Xp1, Xrec1, Xscc1) are answered as the native
// evaluator answers them. Union operands used to be compared by printed form,
// so the child step to type Xp1 and the variable Xp1 were taken for one
// operand and the other was dropped, and so were type Xrec1 and the rec(A, B)
// variable Xrec1. A component's closure variable Xscc1 only ever occurs
// starred; its case is a guard.
func TestTypesNamedLikeVariables(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct{ dtd, doc, query string }{
		{`<!ELEMENT r (Xp1, y)> <!ELEMENT y (Xp1)> <!ELEMENT Xp1 (#PCDATA)>`,
			`<r><Xp1>a</Xp1><y><Xp1>b</Xp1></y></r>`, "r/(Xp1 | y/Xp1)"},
		{`<!ELEMENT Xrec1 (a*, b*, c*)> <!ELEMENT a (b*)> <!ELEMENT b (c*)> <!ELEMENT c (b*)>`,
			`<Xrec1><a><b><c/></b></a><b/></Xrec1>`, "//* | b"},
		{`<!ELEMENT r (Xscc1*)> <!ELEMENT Xscc1 (Xscc1*, a*)> <!ELEMENT a (#PCDATA)>`,
			`<r><Xscc1><Xscc1><a>x</a></Xscc1></Xscc1></r>`, "r/Xscc1 | //Xscc1 | r//*"},
	} {
		d, err := xpath2sql.ParseDTD(c.dtd)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := xpath2sql.ParseXML(c.doc)
		if err != nil {
			t.Fatal(err)
		}
		db, err := xpath2sql.Shred(doc, d)
		if err != nil {
			t.Fatal(err)
		}
		q, err := xpath2sql.ParseQuery(c.query)
		if err != nil {
			t.Fatal(err)
		}
		p, err := xpath2sql.New(d).Prepare(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		ans, err := p.ExecuteOn(ctx, xpath2sql.NewLocalBackend(db))
		if err != nil {
			t.Fatal(err)
		}
		var want []int
		for _, id := range xpath2sql.EvalXPath(q, doc) {
			want = append(want, int(id))
		}
		if fmt.Sprint(ans.IDs) != fmt.Sprint(want) {
			t.Errorf("%s over %s: engine %v, native evaluator %v\n%s", c.query, c.dtd, ans.IDs, want, p.ExtendedXPath())
		}
	}
}
