package core

import (
	"context"
	"fmt"
	"sync"

	"xpath2sql/internal/dtd"
	"xpath2sql/internal/expath"
	"xpath2sql/internal/obs"
	"xpath2sql/internal/ra"
	"xpath2sql/internal/rdb"
	"xpath2sql/internal/xpath"
)

// Strategy selects the translation approach compared in §6.
type Strategy int

const (
	// StrategyCycleEX is the paper's contribution ("X"): XPathToEXp with
	// CycleEX, then EXpToSQL with the single-input LFP operator.
	StrategyCycleEX Strategy = iota
	// StrategyCycleE replaces CycleEX with Tarjan's variable-free
	// expressions ("E"): same pipeline, exponentially larger plans.
	StrategyCycleE
	// StrategySQLGenR is the baseline of [39] ("R"): multi-relation SQL'99
	// fixpoints, no extended XPath.
	StrategySQLGenR
)

// String returns the single-letter label used in the paper's figures.
func (s Strategy) String() string {
	switch s {
	case StrategyCycleEX:
		return "X"
	case StrategyCycleE:
		return "E"
	case StrategySQLGenR:
		return "R"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Options configures Translate.
type Options struct {
	Strategy Strategy
	SQL      SQLOptions
	// NestedRec makes the CycleEX strategy emit the raw nested equation
	// system of Fig 7 instead of the flat per-component closure form of
	// Example 3.5. The nested form is what Table 5 counts; the flat form is
	// the executed plan shape (its fixpoints can be seeded by pushed
	// selections, §5.2).
	NestedRec bool
}

// DefaultOptions returns the recommended configuration: CycleEX with
// optimized ε handling and pushed selections.
func DefaultOptions() Options {
	return Options{Strategy: StrategyCycleEX, SQL: DefaultSQLOptions()}
}

// Result is a translated query.
type Result struct {
	Strategy Strategy
	// EQ is the intermediate extended-XPath query (nil for SQLGen-R, which
	// bypasses extended XPath).
	EQ *expath.Query
	// Program is the relational-query sequence; its result relation's T
	// column holds the answer node IDs.
	Program *ra.Program
}

// Schema is what translation derives from a DTD alone — its validity, its
// graph under the virtual document root with the reachability and
// component structure the descendant axis needs, and the fingerprint
// programs are stamped with — each but the first two on first use. An Engine,
// whose DTD is frozen, derives it once; Translate derives it per call. A
// Schema is safe for concurrent use.
type Schema struct {
	d      *dtd.DTD
	g      *transGraph // nil when err is not
	err    error       // the DTD's Check
	fpOnce sync.Once
	fp     string
}

// NewSchema analyzes the DTD, which must not be mutated afterwards.
func NewSchema(d *dtd.DTD) *Schema {
	if err := d.Check(); err != nil {
		return &Schema{d: d, err: err}
	}
	return &Schema{d: d, g: newTransGraph(d.BuildGraph())}
}

// Fingerprint returns the DTD's content hash (dtd.Fingerprint).
func (s *Schema) Fingerprint() string {
	s.fpOnce.Do(func() { s.fp = s.d.Fingerprint() })
	return s.fp
}

// Translate rewrites an XPath query over a DTD into a sequence of relational
// queries per the selected strategy. The program's result holds the answer
// when evaluated over any database produced by shred.Shred from a document
// conforming to the DTD (or any DTD containing it).
func Translate(q xpath.Path, d *dtd.DTD, opts Options) (*Result, error) {
	return NewSchema(d).Translate(q, opts)
}

// Translate is the package-level Translate over the schema's DTD.
func (s *Schema) Translate(q xpath.Path, opts Options) (*Result, error) {
	return s.TranslatePrinted(q, xpath.Print(q), opts)
}

// TranslatePrinted is Translate of q printed as pq: a plan cache keyed on
// pq.Text passes it on, so a miss prints the query once.
func (s *Schema) TranslatePrinted(q xpath.Path, pq xpath.Printed, opts Options) (*Result, error) {
	switch opts.Strategy {
	case StrategySQLGenR:
		prog, err := s.sqlGenR(q)
		if err != nil {
			return nil, err
		}
		prog.DTDFP, prog.Query = s.Fingerprint(), pq.Text
		prog.StampKeys()
		return &Result{Strategy: opts.Strategy, Program: prog}, nil
	case StrategyCycleE, StrategyCycleEX:
		rec := RecFlat
		if opts.NestedRec {
			rec = RecCycleEX
		}
		if opts.Strategy == StrategyCycleE {
			rec = RecCycleE
		}
		eq, err := s.xpathToEXp(q, pq, rec)
		if err != nil {
			return nil, err
		}
		prog, err := EXpToSQL(eq, opts.SQL)
		if err != nil {
			return nil, err
		}
		// Stamp the translation DTD so engines can check that a stored
		// interval encoding (shredded against some DTD) matches before
		// taking the DescScan fast path, the query text for executors that
		// ship text, not plans, and the keys executors and the SQL renderer
		// skip dedup on.
		prog.DTDFP, prog.Query = s.Fingerprint(), pq.Text
		prog.StampKeys()
		return &Result{Strategy: opts.Strategy, EQ: eq, Program: prog}, nil
	}
	return nil, fmt.Errorf("core: unknown strategy %v", opts.Strategy)
}

// Execute runs the translated program against a shredded database and
// returns the answer node IDs with execution statistics. The virtual
// document root (ID 0) is dropped: it can enter the result relation via ε
// but is a context, not a document node.
func (r *Result) Execute(db *rdb.DB) ([]int, *rdb.Stats, error) {
	return r.ExecuteCtx(context.Background(), db, obs.Limits{}, nil)
}

// ExecuteCtx is Execute under a context with resource limits: cancellation
// and limits are checked between statements and between fixpoint iterations,
// returning context errors or typed *obs.LimitError values. When trace is
// non-nil, one obs.StmtEvent per evaluated statement is recorded; its totals
// agree with the returned stats.
func (r *Result) ExecuteCtx(ctx context.Context, db *rdb.DB, limits obs.Limits, trace *obs.Trace) ([]int, *rdb.Stats, error) {
	ex := rdb.NewExec(db)
	ex.Limits = limits
	rel, err := ex.RunCtx(ctx, r.Program, trace)
	if err != nil {
		return nil, nil, err
	}
	return rel.AnswerIDs(), &ex.Stats, nil
}
