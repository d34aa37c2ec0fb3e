package bench

import (
	"context"
	"fmt"
	"time"

	"xpath2sql/internal/core"
	"xpath2sql/internal/dtd"
	"xpath2sql/internal/obs"
	"xpath2sql/internal/rdb"
	"xpath2sql/internal/shred"
	"xpath2sql/internal/workload"
	"xpath2sql/internal/xmlgen"
	"xpath2sql/internal/xmltree"
	"xpath2sql/internal/xpath"
)

// Exp1 reproduces Fig 12 (a–h): the queries Qa–Qd over the cross-cycle DTD,
// with the document shape varied — X_L ∈ {8,12,16,20} at X_R = 4, and
// X_R ∈ {4,6,8,10} at X_L = 12 — at a fixed element count (120,000 in the
// paper, scaled here).
func Exp1(c Config) ([]*Table, error) {
	d := workload.Cross()
	target := c.size(120000)
	queries := []string{"Qa", "Qb", "Qc", "Qd"}
	var tables []*Table
	for _, qname := range queries {
		query := workload.CrossQueries[qname]
		for _, sweep := range []struct {
			axis   string
			fixed  string
			values []int
		}{
			{"XL", "XR=4", []int{8, 12, 16, 20}},
			{"XR", "XL=12", []int{4, 6, 8, 10}},
		} {
			tb := &Table{
				Title:  fmt.Sprintf("Fig 12 — %s = %s, vary %s (%s), %d elements", qname, query, sweep.axis, sweep.fixed, target),
				Series: []string{"R", "X", "E"},
			}
			for _, v := range sweep.values {
				xl, xr := 12, 4
				if sweep.axis == "XL" {
					xl = v
				} else {
					xr = v
					xl = 12
				}
				ds, err := BuildDataset("cross", d, xl, xr, 42, target)
				if err != nil {
					return nil, err
				}
				row := Row{Label: fmt.Sprintf("%s=%d", sweep.axis, v)}
				for _, s := range Strategies {
					m, err := RunQueryCfg(c, ds, query, s)
					if err != nil {
						return nil, fmt.Errorf("%s %s [%v]: %w", qname, row.Label, s, err)
					}
					row.Cells = append(row.Cells, m)
				}
				if err := checkAgreement(row); err != nil {
					return nil, err
				}
				tb.Rows = append(tb.Rows, row)
			}
			tb.Print(c)
			tables = append(tables, tb)
		}
	}
	return tables, nil
}

// Exp2 reproduces Fig 13 (a, b): pushing selections into the LFP operator.
// Queries Qe (selection at the head) and Qf (selection at the tail) run over
// an X_R = 8, X_L = 12 document while the number of qualified elements
// varies from 100 to 50,000 (scaled); the two series are the translation
// with and without the §5.2 push optimization.
func Exp2(c Config) ([]*Table, error) {
	d := workload.Cross()
	target := c.size(120000)
	selSizes := []int{}
	for _, n := range []int{100, 1000, 10000, 50000} {
		scaled := int(float64(n) * c.Scale.Factor())
		if scaled < 5 {
			scaled = 5
		}
		selSizes = append(selSizes, scaled)
	}
	var tables []*Table
	for _, sweep := range []struct {
		fig   string
		query string
		label string // marked element type
	}{
		{"Fig 13a", workload.CrossQueries["Qe"], "a"},
		{"Fig 13b", workload.CrossQueries["Qf"], "d"},
	} {
		tb := &Table{
			Title:  fmt.Sprintf("%s — %s, vary |σ(%s)| (XR=8, XL=12, %d elements)", sweep.fig, sweep.query, sweep.label, target),
			Series: []string{"Push-Selection", "Selection"},
		}
		for _, selN := range selSizes {
			doc, err := GenerateRetry(d, 12, 8, 7, target)
			if err != nil {
				return nil, err
			}
			marked := xmlgen.MarkValues(doc, sweep.label, selN, "SEL", int64(selN))
			db, err := shredDoc(doc, d)
			if err != nil {
				return nil, err
			}
			ds := &Dataset{DTD: d, Doc: doc, DB: db}
			row := Row{Label: fmt.Sprintf("sel=%d", marked)}
			for _, push := range []bool{true, false} {
				q, err := xpath.Parse(sweep.query)
				if err != nil {
					return nil, err
				}
				opts := core.Options{Strategy: core.StrategyCycleEX,
					SQL: core.SQLOptions{AtRoot: true, PushSelections: push}}
				res, err := core.Translate(q, d, opts)
				if err != nil {
					return nil, err
				}
				var trace *obs.Trace
				if c.Trace {
					trace = &obs.Trace{}
				}
				t0 := time.Now()
				ids, stats, err := res.ExecuteCtx(context.Background(), ds.DB, c.Limits, trace)
				if err != nil {
					return nil, err
				}
				name := "Selection"
				if push {
					name = "Push-Selection"
				}
				row.Cells = append(row.Cells, Measurement{
					Strategy: name,
					Seconds:  time.Since(t0).Seconds(),
					Stats:    *stats,
					Answers:  len(ids),
					Trace:    trace,
				})
			}
			if err := checkAgreement(row); err != nil {
				return nil, err
			}
			tb.Rows = append(tb.Rows, row)
		}
		tb.Print(c)
		tables = append(tables, tb)
	}
	return tables, nil
}

// Exp3 reproduces Fig 14: scalability of a//d over the cross-cycle DTD
// (X_L = 16, X_R = 4), dataset size growing from 60,000 to 480,000 elements
// (scaled).
func Exp3(c Config) (*Table, error) {
	d := workload.Cross()
	tb := &Table{
		Title:  "Fig 14 — a//d over cross DTD, vary dataset size (XL=16, XR=4)",
		Series: []string{"R", "X", "E"},
	}
	for _, paperSize := range []int{60000, 120000, 240000, 480000} {
		target := c.size(paperSize)
		ds, err := BuildDataset("cross", d, 16, 4, 42, target)
		if err != nil {
			return nil, err
		}
		row := Row{Label: fmt.Sprintf("%d", ds.Doc.Size())}
		for _, s := range Strategies {
			m, err := RunQueryCfg(c, ds, "a//d", s)
			if err != nil {
				return nil, err
			}
			row.Cells = append(row.Cells, m)
		}
		if err := checkAgreement(row); err != nil {
			return nil, err
		}
		tb.Rows = append(tb.Rows, row)
	}
	tb.Print(c)
	return tb, nil
}

// Exp4BIOML reproduces Fig 16 / Table 4: the cases 2a–4b over the BIOML
// extracts, all executed against one dataset generated from the largest
// 4-cycle DTD (1,990,858 elements in the paper, scaled). Translating over a
// sub-DTD and executing on the full data is exactly the view semantics of
// §3.4, so all strategies agree on the answers.
func Exp4BIOML(c Config) (*Table, error) {
	target := c.size(1990858)
	full := workload.BIOML()
	ds, err := BuildDataset("bioml", full, 16, 6, 42, target)
	if err != nil {
		return nil, err
	}
	tb := &Table{
		Title:  fmt.Sprintf("Fig 16 — BIOML cases (Table 4), %d elements", ds.Doc.Size()),
		Series: []string{"R", "X", "E"},
	}
	for _, cs := range workload.BIOMLCases {
		caseDTD := cs.DTD()
		row := Row{Label: fmt.Sprintf("%s %s", cs.Name, cs.Query)}
		for _, s := range Strategies {
			q, err := xpath.Parse(cs.Query)
			if err != nil {
				return nil, err
			}
			opts := core.DefaultOptions()
			opts.Strategy = s
			res, err := core.Translate(q, caseDTD, opts)
			if err != nil {
				return nil, err
			}
			var trace *obs.Trace
			if c.Trace {
				trace = &obs.Trace{}
			}
			t0 := time.Now()
			ids, stats, err := res.ExecuteCtx(context.Background(), ds.DB, c.Limits, trace)
			if err != nil {
				return nil, err
			}
			row.Cells = append(row.Cells, Measurement{
				Strategy: s.String(),
				Seconds:  time.Since(t0).Seconds(),
				Stats:    *stats,
				Answers:  len(ids),
				Trace:    trace,
			})
		}
		if err := checkAgreement(row); err != nil {
			return nil, err
		}
		tb.Rows = append(tb.Rows, row)
	}
	tb.Print(c)
	return tb, nil
}

// Exp4GedML reproduces Fig 17 (a, b): Even//Data over the 9-cycle GedML
// extract, varying X_L ∈ {13,14,15} at X_R = 6 and X_R ∈ {6,7,8} at
// X_L = 16. The paper's (untrimmed) datasets reach 5 million elements; the
// scaled runs cap at the corresponding fraction.
func Exp4GedML(c Config) ([]*Table, error) {
	d := workload.GedML()
	var tables []*Table
	sweeps := []struct {
		fig    string
		axis   string
		values []int
		sizes  []int // paper's element counts per value
	}{
		{"Fig 17a", "XL", []int{13, 14, 15}, []int{286845, 845045, 1019798}},
		{"Fig 17b", "XR", []int{6, 7, 8}, []int{226663, 1199990, 5041437}},
	}
	for _, sweep := range sweeps {
		tb := &Table{
			Title:  fmt.Sprintf("%s — Even//Data over GedML, vary %s", sweep.fig, sweep.axis),
			Series: []string{"R", "X", "E"},
		}
		for i, v := range sweep.values {
			xl, xr := 16, 6
			if sweep.axis == "XL" {
				xl = v
			} else {
				xr = v
			}
			target := c.size(sweep.sizes[i])
			ds, err := BuildDataset("gedml", d, xl, xr, 42, target)
			if err != nil {
				return nil, err
			}
			row := Row{Label: fmt.Sprintf("%s=%d (%d el)", sweep.axis, v, ds.Doc.Size())}
			for _, s := range Strategies {
				m, err := RunQueryCfg(c, ds, "Even//Data", s)
				if err != nil {
					return nil, err
				}
				row.Cells = append(row.Cells, m)
			}
			if err := checkAgreement(row); err != nil {
				return nil, err
			}
			tb.Rows = append(tb.Rows, row)
		}
		tb.Print(c)
		tables = append(tables, tb)
	}
	return tables, nil
}

// OpStats aggregates min/max/average operator counts over node pairs.
type OpStats struct {
	Min, Max int
	Sum, N   int
}

func (o *OpStats) add(v int) {
	if o.N == 0 || v < o.Min {
		o.Min = v
	}
	if v > o.Max {
		o.Max = v
	}
	o.Sum += v
	o.N++
}

// Avg returns the rounded average.
func (o *OpStats) Avg() int {
	if o.N == 0 {
		return 0
	}
	return (o.Sum + o.N/2) / o.N
}

func (o *OpStats) String() string {
	return fmt.Sprintf("%d/%d/%d", o.Min, o.Max, o.Avg())
}

// Exp5Row is one row of Table 5.
type Exp5Row struct {
	Name    string
	N, M, C int // nodes, edges, simple cycles
	// Extended-XPath operator statistics over all reachable ordered pairs.
	CycleELFP, CycleEAll   OpStats
	CycleEXLFP, CycleEXAll OpStats
}

// Exp5 reproduces Table 5: for each DTD, enumerate every ordered pair
// (A, B) with B reachable from A, compute the extended-XPath representation
// of all A→B paths with CycleE and with CycleEX, and report min/max/average
// LFP (Kleene closure) and ALL operator counts.
func Exp5(c Config) ([]Exp5Row, error) {
	entries := []struct {
		name string
		d    *dtd.DTD
	}{
		{"Cross (Fig 11a)", workload.Cross()},
		{"BIOMLa (Fig 15a)", workload.BIOMLa()},
		{"BIOMLb (Fig 15b)", workload.BIOMLb()},
		{"BIOMLc (Fig 15c)", workload.BIOMLc()},
		{"BIOMLd (Fig 15d)", workload.BIOMLd()},
		{"GedML (Fig 11c)", workload.GedML()},
	}
	var rows []Exp5Row
	for _, e := range entries {
		g := e.d.BuildGraph()
		row := Exp5Row{Name: e.name, N: g.NumNodes(), M: g.NumEdges(), C: g.NumSimpleCycles()}
		pairs := core.AllRecPairs(e.d)
		for _, p := range pairs {
			row.CycleELFP.add(p.CycleE.Star)
			row.CycleEAll.add(p.CycleE.All())
			row.CycleEXLFP.add(p.CycleEX.Star)
			row.CycleEXAll.add(p.CycleEX.All())
		}
		rows = append(rows, row)
	}
	c.printf("\nTable 5 — operator counts (min/max/average) over all reachable pairs\n")
	c.printf("%-18s %3s %3s %3s | %-12s %-14s | %-12s %-14s\n",
		"DTD", "n", "m", "c", "CycleE LFP", "CycleE ALL", "CycleEX LFP", "CycleEX ALL")
	for _, r := range rows {
		c.printf("%-18s %3d %3d %3d | %-12s %-14s | %-12s %-14s\n",
			r.Name, r.N, r.M, r.C,
			r.CycleELFP.String(), r.CycleEAll.String(),
			r.CycleEXLFP.String(), r.CycleEXAll.String())
	}
	return rows, nil
}

func shredDoc(doc *xmltree.Document, d *dtd.DTD) (*rdb.DB, error) {
	return shred.Shred(doc, d)
}

// RunAll executes every experiment.
func RunAll(c Config) error {
	if _, err := Exp1(c); err != nil {
		return fmt.Errorf("exp1: %w", err)
	}
	if _, err := Exp2(c); err != nil {
		return fmt.Errorf("exp2: %w", err)
	}
	if _, err := Exp3(c); err != nil {
		return fmt.Errorf("exp3: %w", err)
	}
	if _, err := Exp4BIOML(c); err != nil {
		return fmt.Errorf("exp4 bioml: %w", err)
	}
	if _, err := Exp4GedML(c); err != nil {
		return fmt.Errorf("exp4 gedml: %w", err)
	}
	if _, err := Exp5(c); err != nil {
		return fmt.Errorf("exp5: %w", err)
	}
	return nil
}
