package bench

import (
	"strings"
	"testing"

	"xpath2sql/internal/dtd"
	"xpath2sql/internal/workload"
	"xpath2sql/internal/xmltree"
)

// tiny runs experiments at the smallest scale for smoke coverage.
func tiny() Config { return Config{Scale: ScaleSmall} }

func TestScaleFactors(t *testing.T) {
	if ScalePaper.Factor() != 1 {
		t.Fatal("paper factor")
	}
	if ScaleSmall.Factor() >= ScaleMedium.Factor() {
		t.Fatal("small should be smaller than medium")
	}
	c := Config{Scale: ScaleSmall}
	if got := c.size(120000); got < 500 || got > 120000 {
		t.Fatalf("size = %d", got)
	}
	if got := c.size(1); got != 500 {
		t.Fatalf("size floor = %d", got)
	}
}

func TestBuildDatasetCachesAndRetries(t *testing.T) {
	d := crossDTD()
	ds1, err := BuildDataset("t-cross", d, 10, 4, 42, 3000)
	if err != nil {
		t.Fatal(err)
	}
	// Seed 42 goes extinct at the root on this DTD; retry must recover.
	if ds1.Doc.Size() < 1000 {
		t.Fatalf("retry failed: size = %d", ds1.Doc.Size())
	}
	ds2, err := BuildDataset("t-cross", d, 10, 4, 42, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if ds1 != ds2 {
		t.Fatal("dataset not cached")
	}
	if ds1.DB.NumNodes() != ds1.Doc.Size() {
		t.Fatalf("db nodes %d vs doc %d", ds1.DB.NumNodes(), ds1.Doc.Size())
	}
}

func TestRunQueryAgreesAcrossStrategies(t *testing.T) {
	ds, err := BuildDataset("t-cross2", crossDTD(), 10, 4, 7, 2000)
	if err != nil {
		t.Fatal(err)
	}
	var answers []int
	for _, s := range Strategies {
		m, err := RunQuery(ds, "a/b//c/d", s)
		if err != nil {
			t.Fatalf("[%v] %v", s, err)
		}
		answers = append(answers, len(m.IDs))
		if m.Seconds < 0 {
			t.Fatalf("negative time")
		}
	}
	for i := 1; i < len(answers); i++ {
		if answers[i] != answers[0] {
			t.Fatalf("strategies disagree: %v", answers)
		}
	}
}

// TestExp5OperatorCounts asserts the Table 5 shape claims: CycleEX uses
// strictly fewer LFP and total operators than CycleE on every DTD (on
// average), and the counts sit in the paper's magnitude bands.
func TestExp5OperatorCounts(t *testing.T) {
	rows, err := Exp5(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.CycleEXLFP.Avg() >= r.CycleELFP.Avg() {
			t.Errorf("%s: CycleEX LFP avg %d !< CycleE %d", r.Name, r.CycleEXLFP.Avg(), r.CycleELFP.Avg())
		}
		if r.CycleEXAll.Avg() >= r.CycleEAll.Avg() {
			t.Errorf("%s: CycleEX ALL avg %d !< CycleE %d", r.Name, r.CycleEXAll.Avg(), r.CycleEAll.Avg())
		}
		// Magnitude bands: CycleEX LFP 2..14, ALL below 100 on these DTDs.
		if r.CycleEXLFP.Max > 20 || r.CycleEXAll.Max > 100 {
			t.Errorf("%s: CycleEX counts out of band: %+v", r.Name, r)
		}
		if r.Min() {
			t.Errorf("%s: empty stats", r.Name)
		}
	}
	// GedML (9 cycles) must cost CycleE more than the 2-cycle DTDs.
	if rows[5].CycleEAll.Avg() <= rows[0].CycleEAll.Avg() {
		t.Errorf("GedML should cost CycleE more than Cross")
	}
}

// Min reports whether any stat is empty (helper keeping the assertion above
// readable).
func (r Exp5Row) Min() bool { return r.CycleELFP.N == 0 || r.CycleEXLFP.N == 0 }

// TestExperimentsSmoke runs each timed experiment once at tiny scale,
// asserting cross-strategy agreement (checkAgreement runs inside) and that
// output is produced.
func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	var sb strings.Builder
	cfg := Config{Scale: ScaleSmall, Out: &sb}
	if _, err := Exp3(cfg); err != nil {
		t.Fatalf("exp3: %v", err)
	}
	if _, err := Exp2(cfg); err != nil {
		t.Fatalf("exp2: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"Fig 14", "Fig 13a", "Push-Selection"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output", want)
		}
	}
}

func TestOpStats(t *testing.T) {
	var o OpStats
	for _, v := range []int{5, 3, 10} {
		o.add(v)
	}
	if o.Min != 3 || o.Max != 10 || o.Avg() != 6 {
		t.Fatalf("%+v avg=%d", o, o.Avg())
	}
	if o.String() != "3/10/6" {
		t.Fatalf("String = %s", o.String())
	}
}

func crossDTD() *dtd.DTD { return workload.Cross() }

// TestCheckAgreementComparesNodes: a row whose cells found as many answers as
// the native evaluator, but other nodes, is refused; through a view's σ, the
// right nodes pass.
func TestCheckAgreementComparesNodes(t *testing.T) {
	doc, err := xmltree.Parse(`<a><b/><c/><b/></a>`) // b is nodes 2 and 4
	if err != nil {
		t.Fatal(err)
	}
	row := func(ids ...int) Row {
		return Row{Label: "r", Cells: []Measurement{{Strategy: "X", IDs: []int{2, 4}}, {Strategy: "E", IDs: ids}}}
	}
	if err := checkAgreement(row(2, 4), "a/b", doc, nil); err != nil {
		t.Fatal(err)
	}
	if err := checkAgreement(row(2, 3), "a/b", doc, nil); err == nil {
		t.Fatal("a cell with the right count and the wrong nodes passed")
	}
	view, err := xmltree.Parse(`<a><b/><b/></a>`) // the b of a view are its nodes 2 and 3
	if err != nil {
		t.Fatal(err)
	}
	if err := checkAgreement(row(2, 4), "a/b", view, map[xmltree.NodeID]xmltree.NodeID{1: 1, 2: 2, 3: 4}); err != nil {
		t.Fatal(err)
	}
}
