// Package xpath2sql answers XPath queries over XML stored in relations via
// DTD-based shredding, translating XPath — descendant axis, unions and rich
// qualifiers included — into sequences of SQL queries that need only a
// simple single-input least-fixpoint operator, even when the DTD is
// recursive. It implements Fan, Yu, Li, Ding and Qin, "Query Translation
// from XPath to SQL in the Presence of Recursive DTDs" (VLDB 2005 / VLDB J.
// 18(4), 2009).
//
// The pipeline — build an Engine once, prepare queries through its plan
// cache, execute many times:
//
//	dtd, _ := xpath2sql.ParseDTD(dtdText)      // recursive DTDs welcome
//	eng := xpath2sql.New(dtd)
//	p, _ := eng.PrepareString(ctx, "dept//project")
//	sql, _ := p.SQL(xpath2sql.DialectDB2)      // the SQL to ship to an RDBMS
//	fmt.Println(sql)
//
// For self-contained use, the package bundles an in-memory relational
// engine, a shredder and an XML generator:
//
//	doc, _ := xpath2sql.ParseXML(xmlText)
//	db, _ := xpath2sql.Shred(doc, dtd)
//	ans, _ := p.ExecuteOn(ctx, xpath2sql.NewLocalBackend(db)) // ans.IDs: answer node IDs
//
// Execution is pluggable through the Backend interface: the bundled
// in-process engine (NewLocalBackend) and a database/sql executor that runs
// the generated recursive SQL on a real database (OpenSQLBackend). An Engine
// built with WithBackend executes through it:
//
//	be, _ := xpath2sql.OpenSQLBackend(ctx, "pgx", dsn)
//	be.Load(ctx, db)
//	eng = xpath2sql.New(dtd, xpath2sql.WithBackend(be))
//	p, _ = eng.PrepareString(ctx, "dept//project")
//	ans, _ = p.Execute(ctx)                    // runs WITH RECURSIVE SQL
//
// Three translation strategies are provided for comparison, matching the
// paper's experiments: the extended-XPath approach with CycleEX (X, the
// contribution), with Tarjan's CycleE (E), and the SQLGen-R baseline of
// Krishnamurthy et al. (R), which requires the multi-relation SQL'99
// with…recursive operator.
package xpath2sql

import (
	"io"

	"xpath2sql/internal/core"
	"xpath2sql/internal/dtd"
	"xpath2sql/internal/expath"
	"xpath2sql/internal/plancache"
	"xpath2sql/internal/ra"
	"xpath2sql/internal/rdb"
	"xpath2sql/internal/shred"
	"xpath2sql/internal/views"
	"xpath2sql/internal/xmlgen"
	"xpath2sql/internal/xmltree"
	"xpath2sql/internal/xpath"
)

// Re-exported data model types.
type (
	// DTD is a Document Type Definition: an extended context-free grammar
	// with a distinguished root type (§2.1 of the paper).
	DTD = dtd.DTD
	// DTDGraph is the graph of a DTD: types as nodes, parent/child edges.
	DTDGraph = dtd.Graph
	// Document is an unordered XML element tree.
	Document = xmltree.Document
	// Node is an element node of a Document.
	Node = xmltree.Node
	// NodeID identifies a node; the virtual document root is 0.
	NodeID = xmltree.NodeID
	// Query is a parsed XPath query of the paper's fragment.
	Query = xpath.Path
	// ExtendedQuery is an extended-XPath query: equations over expressions
	// with variables and general Kleene closure (§3.2).
	ExtendedQuery = expath.Query
	// DB is an in-memory shredded database: one (F, T, V) edge relation per
	// element type.
	DB = rdb.DB
	// Relation is a set of (F, T, V) tuples.
	Relation = rdb.Relation
	// ExecStats reports the work a query execution performed.
	ExecStats = rdb.Stats
	// Program is a sequence of relational-algebra statements.
	Program = ra.Program
)

// Strategy selects the translation approach.
type Strategy = core.Strategy

// Translation strategies (the paper's X / E / R).
const (
	StrategyCycleEX = core.StrategyCycleEX
	StrategyCycleE  = core.StrategyCycleE
	StrategySQLGenR = core.StrategySQLGenR
)

// Dialect selects the SQL flavor for rendering.
type Dialect = ra.Dialect

// SQL dialects for the LFP operator (Fig 4).
const (
	DialectDB2    = ra.DialectDB2
	DialectOracle = ra.DialectOracle
)

// ParseDialect maps a dialect name to a Dialect: "db2", "sql99" and "" give
// DB2 (the executable WITH RECURSIVE form), "oracle" gives Oracle
// (render-only CONNECT BY). Unknown names return ErrDialect.
func ParseDialect(s string) (Dialect, error) { return ra.ParseDialect(s) }

// Options configures translation.
type Options = core.Options

// DefaultOptions returns the recommended configuration: the CycleEX
// strategy with optimized ε handling and selections pushed into the LFP
// operator (§5.2).
func DefaultOptions() Options { return core.DefaultOptions() }

// ParseDTD parses <!ELEMENT …> declarations; the first declared element is
// the root unless a "<!-- root: name -->" comment overrides it.
func ParseDTD(src string) (*DTD, error) { return dtd.Parse(src) }

// ParseXML parses an XML document (elements and text; attributes ignored).
func ParseXML(src string) (*Document, error) { return xmltree.Parse(src) }

// ParseQuery parses an XPath query of the supported fragment:
// '/', '//', '*', '.', '|', qualifiers with 'and', 'or', 'not(…)' and
// "text()='c'".
func ParseQuery(src string) (Query, error) { return xpath.Parse(src) }

// Translation is a translated query: the extended-XPath intermediate form
// (when the strategy uses one) and the relational program. Translations
// built by an Engine carry its limits into every execution.
// A Translation is immutable and safe for concurrent use; per-run state
// (trace, statistics) lives in the Answer each execution returns.
type Translation struct {
	res    *core.Result
	limits Limits
	// cache, when the translation came through a caching Engine, lets each
	// Answer snapshot the plan-cache counters for its Explain footer.
	cache *plancache.Cache
	// backend, when the engine was built with WithBackend, is the execution
	// target of Execute (nil = ErrNoBackend; ExecuteOn names its target
	// explicitly).
	backend Backend
	// intervals pins the physical path for descendant steps
	// (WithIntervalMode); the zero value IntervalAuto uses the interval
	// kernel whenever the database carries a matching encoding.
	intervals IntervalMode
	// doc scopes every execution to one document (InDocument); 0 = none.
	doc int
	// trace makes every execution record a per-statement trace (Traced).
	trace bool
}

// Strategy reports which translation strategy produced this plan.
func (t *Translation) Strategy() Strategy { return t.res.Strategy }

// ExtendedXPath returns the intermediate extended-XPath query, or nil for
// the SQLGen-R strategy (which bypasses extended XPath).
func (t *Translation) ExtendedXPath() *ExtendedQuery { return t.res.EQ }

// Program returns the relational-algebra statement sequence.
func (t *Translation) Program() *Program { return t.res.Program }

// SQLOption adjusts SQL rendering beyond the dialect.
type SQLOption func(*ra.SQLRenderOptions)

// WithNodesTable names the (ID, VAL) node-catalog table the rendered SQL
// reads ("all_nodes" when not given).
func WithNodesTable(name string) SQLOption {
	return func(o *ra.SQLRenderOptions) { o.NodesTable = name }
}

// WithTempPrefix prefixes every temporary-table name in the rendered SQL, so
// concurrent statement sequences over one database never collide.
func WithTempPrefix(prefix string) SQLOption {
	return func(o *ra.SQLRenderOptions) { o.TempPrefix = prefix }
}

// SQL renders the program as SQL text in the given dialect: the statement
// sequence in dependency order, then the answer query. The dialect is
// validated (ErrDialect) and plans with no SQL form are reported
// (ErrUnsupportedPlan) instead of rendering placeholder comments.
func (t *Translation) SQL(d Dialect, opts ...SQLOption) (string, error) {
	o := ra.SQLRenderOptions{Dialect: d}
	for _, f := range opts {
		f(&o)
	}
	rs, err := t.res.Program.RenderSQL(o)
	if err != nil {
		return "", err
	}
	return rs.Script(), nil
}

// Shred maps a document into the per-type edge relations R_A(F, T, V) of
// the paper's storage model (§2.3).
func Shred(doc *Document, d *DTD) (*DB, error) { return shred.Shred(doc, d) }

// ShredStreamOptions configures StreamShred: Workers 1 runs its loader on
// the caller's goroutine, any other value beside the parser.
type ShredStreamOptions = shred.StreamOptions

// StreamShred shreds an XML document read from r in one streaming pass: a
// parser numbers and types the elements and hands completed-element batches
// to one loader, which interns their values and writes the catalog and the
// relations. It produces the same database as Shred over the parsed tree
// but never holds the document text or the element tree, so it ingests
// documents far larger than memory would allow the tree builder.
func StreamShred(r io.Reader, d *DTD, opts ShredStreamOptions) (*DB, error) {
	return shred.StreamShred(r, d, opts)
}

// InlineSchema derives the shared-inlining relational schema of a DTD
// (Shanmugasundaram et al., as used in Example 2.3).
func InlineSchema(d *DTD) []shred.RelSchema { return shred.InlineSchema(d) }

// GenOptions configures the bundled XML generator (the IBM XML Generator
// stand-in of §6): XL bounds tree depth, XR bounds per-star fanout.
type GenOptions = xmlgen.Options

// Generate produces a random document conforming to the DTD.
func Generate(d *DTD, opts GenOptions) (*Document, error) {
	return xmlgen.Generate(d, opts)
}

// GenStreamOptions configures the streaming generator: like GenOptions plus
// a byte target that keeps root-level collections growing until met.
type GenStreamOptions = xmlgen.StreamOptions

// GenStreamStats reports what StreamGenerate wrote.
type GenStreamStats = xmlgen.StreamStats

// StreamGenerate writes a random document conforming to the DTD directly to
// w without materializing the tree; memory stays bounded by tree depth, so
// multi-gigabyte documents can be generated for bulk-ingest experiments.
func StreamGenerate(w io.Writer, d *DTD, opts GenStreamOptions) (GenStreamStats, error) {
	return xmlgen.StreamGenerate(w, d, opts)
}

// EvalXPath evaluates a query natively on a document tree (the reference
// semantics used to validate translations).
func EvalXPath(q Query, doc *Document) []NodeID {
	return xpath.EvalDoc(q, doc).IDs()
}

// AnswerOnView answers an XPath query posed against a virtual XML view
// (defined by view DTD d1, contained in the source's DTD) directly on the
// source document, without materializing the view (§3.4).
func AnswerOnView(q Query, d1 *DTD, source *Document) ([]NodeID, error) {
	return views.Answer(q, d1, source)
}

// RewriteForView computes the extended-XPath rewriting of a query over a
// view DTD, valid over every containing DTD (§3.4, Theorem 4.2).
func RewriteForView(q Query, d1 *DTD) (*ExtendedQuery, error) {
	return views.Rewrite(q, d1)
}
