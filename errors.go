package xpath2sql

import (
	"xpath2sql/internal/core"
	"xpath2sql/internal/dtd"
	"xpath2sql/internal/ra"
	"xpath2sql/internal/rdb"
	"xpath2sql/internal/shred"
	"xpath2sql/internal/xpath"
)

// Sentinel errors of the pipeline, matchable with errors.Is. Every error the
// facade returns wraps at most one of these (or is a context error —
// context.Canceled and context.DeadlineExceeded pass through unchanged — or
// a *LimitError, matchable with errors.As and unwrapping to ErrLimit); the
// error message always keeps the precise diagnosis.
var (
	// ErrDTDParse: ParseDTD rejected the DTD text.
	ErrDTDParse = dtd.ErrParse
	// ErrQueryParse: ParseQuery rejected the XPath text.
	ErrQueryParse = xpath.ErrParse
	// ErrUnsupportedQuery: the selected translation strategy cannot handle
	// the query (today only SQLGen-R, whose fragment excludes some
	// qualifier shapes).
	ErrUnsupportedQuery = core.ErrUnsupportedQuery
	// ErrNotInDTD: Shred met a document element whose type has no
	// production in the DTD.
	ErrNotInDTD = shred.ErrNotInDTD
	// ErrDialect: Translation.SQL was given an unknown SQL dialect.
	ErrDialect = ra.ErrDialect
	// ErrUnsupportedPlan: the program contains a plan with no SQL form in
	// the requested dialect.
	ErrUnsupportedPlan = ra.ErrUnsupportedPlan
	// ErrNotDocumentRoot: a document-scoped execution (InDocument) named a
	// node that is not a document root of the executed snapshot.
	ErrNotDocumentRoot = rdb.ErrNotDocumentRoot
	// ErrScopeNeedsIntervals: a document-scoped execution ran on a database
	// without a valid document-order interval encoding.
	ErrScopeNeedsIntervals = rdb.ErrScopeNeedsIntervals
	// ErrDuplicateNode: LoadDB read an image that records one node twice in
	// its catalog or its interval encoding; the message names the line.
	ErrDuplicateNode = rdb.ErrDuplicateNode
)
