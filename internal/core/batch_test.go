package core_test

import (
	"slices"
	"testing"

	"xpath2sql/internal/core"
	"xpath2sql/internal/shred"
	"xpath2sql/internal/workload"
	"xpath2sql/internal/xmlgen"
	"xpath2sql/internal/xpath"
)

// TestBatchAgreesWithIndividual: batch translation returns the same answers
// as per-query translation, for every strategy.
func TestBatchAgreesWithIndividual(t *testing.T) {
	d := workload.Dept()
	doc, err := xmlgen.Generate(d, xmlgen.Options{XL: 6, XR: 3, Seed: 4, MaxNodes: 400})
	if err != nil {
		t.Fatal(err)
	}
	db, err := shred.Shred(doc, d)
	if err != nil {
		t.Fatal(err)
	}
	queries := []xpath.Path{
		xpath.MustParse("dept//project"),
		xpath.MustParse("dept//course[cno]"),
		xpath.MustParse("dept//student[qualified//course]"),
		xpath.MustParse("dept/course/prereq//course"),
	}
	for _, s := range allStrategies {
		opts := core.DefaultOptions()
		opts.Strategy = s
		batch, err := core.TranslateBatch(queries, d, opts)
		if err != nil {
			t.Fatalf("[%v] %v", s, err)
		}
		got, _, err := batch.Execute(db)
		if err != nil {
			t.Fatalf("[%v] %v", s, err)
		}
		for i, q := range queries {
			want := runStrategy(t, q, d, db, s)
			if !slices.Equal(got[i], want) {
				t.Errorf("[%v] query %d (%s): batch %v, individual %v", s, i, q, got[i], want)
			}
		}
	}
}

// TestBatchSharesWork: queries sharing the same descendant region must not
// recompute its seed; the batch executes fewer statements than the sum of
// individual runs.
func TestBatchSharesWork(t *testing.T) {
	d := workload.Dept()
	doc, err := xmlgen.Generate(d, xmlgen.Options{XL: 7, XR: 4, Seed: 8, MaxNodes: 3000})
	if err != nil {
		t.Fatal(err)
	}
	db, err := shred.Shred(doc, d)
	if err != nil {
		t.Fatal(err)
	}
	queries := []xpath.Path{
		xpath.MustParse("dept//project"),
		xpath.MustParse("dept//student"),
		xpath.MustParse("dept//course"),
	}
	opts := core.DefaultOptions()
	batch, err := core.TranslateBatch(queries, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, batchStats, err := batch.Execute(db)
	if err != nil {
		t.Fatal(err)
	}
	sumTuples := 0
	for _, q := range queries {
		res, err := core.Translate(q, d, opts)
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := res.Execute(db)
		if err != nil {
			t.Fatal(err)
		}
		sumTuples += st.TuplesOut
	}
	// Tuples produced is the work metric that holds on either physical path
	// (fixpoint or interval kernel): shared statements materialize once, so
	// the batch must produce strictly fewer tuples than the individual runs.
	if batchStats.TuplesOut >= sumTuples {
		t.Errorf("batch produced %d tuples, individually %d — no sharing", batchStats.TuplesOut, sumTuples)
	}
}

func TestBatchEmpty(t *testing.T) {
	if _, err := core.TranslateBatch(nil, workload.Dept(), core.DefaultOptions()); err == nil {
		t.Fatal("empty batch accepted")
	}
}
