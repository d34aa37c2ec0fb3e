// Package bench regenerates every table and figure of the paper's
// experimental study (§6): Exp-1 (Fig 12), Exp-2 (Fig 13), Exp-3 (Fig 14),
// Exp-4 (Fig 16 / Table 4 and Fig 17) and Exp-5 (Table 5). Each experiment
// prints the same rows/series the paper reports and returns structured
// results for the test suite and the root benchmarks.
//
// Scaling: the paper's documents range from 120,000 to 5 million elements on
// a 2.8 GHz machine; Config.Scale selects proportionally smaller inputs so
// the full suite runs in seconds ("small"), minutes ("medium"), or at
// paper-sized inputs ("paper"). The reproduced claims are shape claims —
// which strategy wins and by what factor — not absolute times.
package bench

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"time"

	"xpath2sql/internal/core"
	"xpath2sql/internal/dtd"
	"xpath2sql/internal/obs"
	"xpath2sql/internal/rdb"
	"xpath2sql/internal/shred"
	"xpath2sql/internal/xmlgen"
	"xpath2sql/internal/xmltree"
	"xpath2sql/internal/xpath"
)

// Scale names a dataset size multiplier.
type Scale string

// Supported scales.
const (
	ScaleSmall  Scale = "small"  // ~1/30 of the paper's sizes
	ScaleMedium Scale = "medium" // ~1/6
	ScalePaper  Scale = "paper"  // the paper's element counts
)

// Factor returns the multiplier applied to the paper's element counts.
func (s Scale) Factor() float64 {
	switch s {
	case ScalePaper:
		return 1
	case ScaleMedium:
		return 1.0 / 6
	default:
		return 1.0 / 30
	}
}

// Config controls an experiment run.
type Config struct {
	Scale Scale
	Out   io.Writer // nil discards output
	// Limits bounds every measured execution; a tripped limit aborts the
	// experiment with a *obs.LimitError (a cheap way to keep a runaway
	// strategy from stalling the whole suite).
	Limits obs.Limits
	// Trace records a per-statement trace for each measured execution and
	// prints the per-row breakdown (the most expensive statements) under
	// each table row.
	Trace bool
}

func (c Config) printf(format string, args ...any) {
	if c.Out != nil {
		fmt.Fprintf(c.Out, format, args...)
	}
}

func (c Config) size(paperSize int) int {
	n := int(float64(paperSize) * c.Scale.Factor())
	if n < 500 {
		n = 500
	}
	return n
}

// Dataset is a generated document and its shredded database.
type Dataset struct {
	DTD *dtd.DTD
	Doc *xmltree.Document
	DB  *rdb.DB
}

// dsCache avoids regenerating identical datasets across benchmark runs.
var dsCache sync.Map // key string -> *Dataset

// BuildDataset generates (or returns a cached) dataset. Random generation
// is a branching process that can go extinct early, so seeds are retried
// until the document reaches a healthy fraction of the requested size (the
// paper regenerated/trimmed to control sizes similarly).
func BuildDataset(name string, d *dtd.DTD, xl, xr int, seed int64, maxNodes int) (*Dataset, error) {
	key := fmt.Sprintf("%s/%d/%d/%d/%d", name, xl, xr, seed, maxNodes)
	if v, ok := dsCache.Load(key); ok {
		return v.(*Dataset), nil
	}
	best, err := GenerateRetry(d, xl, xr, seed, maxNodes)
	if err != nil {
		return nil, err
	}
	db, err := shred.Shred(best, d)
	if err != nil {
		return nil, err
	}
	ds := &Dataset{DTD: d, Doc: best, DB: db}
	dsCache.Store(key, ds)
	return ds, nil
}

// GenerateRetry generates a document, retrying seeds until it reaches at
// least half the requested size (or returning the largest of 64 attempts).
func GenerateRetry(d *dtd.DTD, xl, xr int, seed int64, maxNodes int) (*xmltree.Document, error) {
	var best *xmltree.Document
	for attempt := int64(0); attempt < 64; attempt++ {
		doc, err := xmlgen.Generate(d, xmlgen.Options{XL: xl, XR: xr, Seed: seed + attempt*7919, MaxNodes: maxNodes})
		if err != nil {
			return nil, err
		}
		if best == nil || doc.Size() > best.Size() {
			best = doc
		}
		if best.Size()*2 >= maxNodes {
			break
		}
	}
	return best, nil
}

// Measurement is one timed query execution.
type Measurement struct {
	Strategy  string
	Seconds   float64
	Stats     rdb.Stats
	IDs       []int      // the answer nodes, ascending
	TransSecs float64    // translation time (excluded from Seconds)
	Trace     *obs.Trace // per-statement breakdown (Config.Trace runs only)
}

// Strategies are the three approaches of §6, in the paper's plot order.
var Strategies = []core.Strategy{core.StrategySQLGenR, core.StrategyCycleEX, core.StrategyCycleE}

// RunQuery translates and executes one query with one strategy, unbounded
// and untraced; RunQueryCfg applies a Config's limits and tracing.
func RunQuery(ds *Dataset, query string, strategy core.Strategy) (Measurement, error) {
	return RunQueryCfg(Config{}, ds, query, strategy)
}

// RunQueryCfg translates and executes one query with one strategy under the
// Config's execution limits, recording a per-statement trace when
// c.Trace is set.
func RunQueryCfg(c Config, ds *Dataset, query string, strategy core.Strategy) (Measurement, error) {
	q, err := xpath.Parse(query)
	if err != nil {
		return Measurement{}, err
	}
	opts := core.DefaultOptions()
	opts.Strategy = strategy
	t0 := time.Now()
	res, err := core.Translate(q, ds.DTD, opts)
	if err != nil {
		return Measurement{}, err
	}
	tTrans := time.Since(t0).Seconds()
	var trace *obs.Trace
	if c.Trace {
		trace = &obs.Trace{}
	}
	t1 := time.Now()
	ids, stats, err := res.ExecuteCtx(context.Background(), ds.DB, c.Limits, trace)
	if err != nil {
		return Measurement{}, err
	}
	return Measurement{
		Strategy:  strategy.String(),
		Seconds:   time.Since(t1).Seconds(),
		Stats:     *stats,
		IDs:       ids,
		TransSecs: tTrans,
		Trace:     trace,
	}, nil
}

// Row is one table row of an experiment: an x-axis label and one
// measurement per series.
type Row struct {
	Label string
	Cells []Measurement
}

// Table is one figure/table reproduction.
type Table struct {
	Title  string
	Series []string
	Rows   []Row
}

// Print renders the table with seconds per series.
func (t *Table) Print(c Config) {
	c.printf("\n%s\n", t.Title)
	c.printf("%-14s", "")
	for _, s := range t.Series {
		c.printf("%14s", s)
	}
	c.printf("%10s\n", "answers")
	for _, r := range t.Rows {
		c.printf("%-14s", r.Label)
		for _, m := range r.Cells {
			c.printf("%13.3fs", m.Seconds)
		}
		if len(r.Cells) > 0 {
			c.printf("%10d", len(r.Cells[0].IDs))
		}
		c.printf("\n")
		if c.Trace {
			for _, m := range r.Cells {
				if m.Trace == nil {
					continue
				}
				c.printf("  [%s] top statements:\n", m.Strategy)
				for _, line := range strings.Split(strings.TrimRight(m.Trace.Summary(5), "\n"), "\n") {
					c.printf("    %s\n", line)
				}
			}
		}
	}
}

// checkAgreement verifies, outside the timed region, that every cell of a
// row found the nodes the native evaluator finds for query on doc — mapped
// through sigma where doc is a view of the data (views.Extract) — a guard
// against benchmarking strategies that disagree.
func checkAgreement(r Row, query string, doc *xmltree.Document, sigma map[xmltree.NodeID]xmltree.NodeID) error {
	want := xpath.EvalDoc(xpath.MustParse(query), doc).IDs()
	for _, m := range r.Cells {
		if !slices.EqualFunc(m.IDs, want, func(a int, b xmltree.NodeID) bool {
			if sigma != nil {
				b = sigma[b]
			}
			return a == int(b)
		}) {
			return fmt.Errorf("bench: %s: %s found %d answers, not the %d nodes of the native evaluator", r.Label, m.Strategy, len(m.IDs), len(want))
		}
	}
	return nil
}
