package shred

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"
	"unicode"

	"xpath2sql/internal/dtd"
	"xpath2sql/internal/rdb"
)

// StreamOptions configures StreamShred.
type StreamOptions struct {
	// Workers is the number of relation-loading goroutines; values <= 0
	// select min(GOMAXPROCS, number of element types). Every element type is
	// owned by exactly one worker, so each relation has a single writer.
	Workers int
	// BatchSize is the number of completed-element records per fan-out
	// batch; values <= 0 select 4096.
	BatchSize int
}

const (
	streamBatchSize = 4096
	streamChanDepth = 4
	streamBufSize   = 64 << 10
)

// streamRec is one shredded element. It is emitted when the element's end
// tag is read: at that moment the subtree size — and hence the interval end
// — is known exactly, and the element's direct text is complete.
type streamRec struct {
	label      string
	val        string
	f, t       int
	begin, end int64
	level      int32
	worker     int32
}

// StreamShred shreds an XML document read from r into the per-type edge
// relations without materializing the tree: a single-pass SAX-style parser
// assigns dense preorder IDs and document-order intervals as it reads, and
// fans completed-element batches out to parallel relation loaders plus a
// catalog writer. The result is the same relational instance, catalog and
// interval encoding that Shred(xmltree.Parse(text), d) produces — only the
// tuple insertion order differs (elements arrive in document postorder).
//
// Peak memory is the database being built plus O(buffer + open-element
// stack + channel depth); the document text and the element tree are never
// held. This is the bulk-ingest path for documents too large to parse into
// an xmltree.Document.
func StreamShred(r io.Reader, d *dtd.DTD, opts StreamOptions) (*rdb.DB, error) {
	types := d.Types()
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(types) {
		workers = len(types)
	}
	if workers < 1 {
		workers = 1
	}
	batchSize := opts.BatchSize
	if batchSize <= 0 {
		batchSize = streamBatchSize
	}

	db := rdb.NewDB()
	for _, typ := range types {
		db.Rel(RelName(typ))
	}
	// Types() is sorted, so the type→worker assignment is deterministic and
	// each relation's tuple order reproduces run to run.
	typeWorker := make(map[string]int, len(types))
	for i, typ := range types {
		typeWorker[typ] = i % workers
	}

	catCh := make(chan []streamRec, streamChanDepth)
	workCh := make([]chan []streamRec, workers)
	for i := range workCh {
		workCh[i] = make(chan []streamRec, streamChanDepth)
	}

	var wg sync.WaitGroup
	// The catalog goroutine is the single writer of the DB's Labels map and of
	// the node table, where it leaves the intervals; the table's parent and
	// value columns are filled from the finished relations, whose workers
	// interned the values.
	iv := db.NewIntervalBuilder()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for batch := range catCh {
			for i := range batch {
				rec := &batch[i]
				db.Labels[rec.t] = rec.label
				iv.Set(rec.t, rdb.NodeInterval{Begin: rec.begin, End: rec.end, Level: rec.level})
			}
		}
	}()
	// Relation workers: each batch is shared read-only across all workers;
	// a worker inserts only the records of its own types, so every relation
	// keeps a single writer. Value interning goes through the DB's
	// concurrent interner.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int32) {
			defer wg.Done()
			rels := map[string]*rdb.Relation{}
			for typ, owner := range typeWorker {
				if int32(owner) == w {
					rels[typ] = db.Rels[RelName(typ)]
				}
			}
			for batch := range workCh[int(w)] {
				for i := range batch {
					rec := &batch[i]
					if rec.worker != w {
						continue
					}
					rels[rec.label].Add(rec.f, rec.t, rec.val)
				}
			}
		}(int32(w))
	}

	p := &streamParser{
		r:          r,
		d:          d,
		buf:        make([]byte, 0, streamBufSize),
		names:      map[string]*labelMeta{},
		typeWorker: typeWorker,
		batchSize:  batchSize,
		batch:      make([]streamRec, 0, batchSize),
		catCh:      catCh,
		workCh:     workCh,
	}
	perr := p.run()
	if perr == nil {
		p.flushBatch()
	}
	close(catCh)
	for _, ch := range workCh {
		close(ch)
	}
	wg.Wait()
	if perr != nil {
		return nil, perr
	}
	db.CatalogFromRows()
	iv.Adopt()
	db.DTDFP = d.Fingerprint()
	return db, nil
}

// labelMeta is the per-element-type state the parser resolves once and then
// reuses: the canonical (allocated-once) label string and the owning worker.
type labelMeta struct {
	name   string
	worker int32
}

// streamFrame is one open element on the parse stack.
type streamFrame struct {
	label *labelMeta
	id    int
	text  []byte // unescaped direct text accumulated so far
}

// streamParser is a chunked streaming parser for the same restricted XML
// dialect as xmltree.Parse, sharing its semantics exactly: attributes are
// parsed and discarded, comments/PIs/DOCTYPE are skipped, and an element's
// value is the trimmed concatenation of its unescaped direct text segments.
type streamParser struct {
	r    io.Reader
	d    *dtd.DTD
	buf  []byte // window of the input; buf[pos:] is unconsumed
	pos  int
	off  int64 // global input offset of buf[0] (error reporting)
	eof  bool  // r is exhausted
	rerr error // non-EOF read error, surfaced on the next failure

	names      map[string]*labelMeta
	typeWorker map[string]int

	stack   []streamFrame
	seg     []byte // raw text of the current inter-markup segment
	scratch []byte // name scratch, reused across tags

	nextID int // last assigned preorder ID

	batchSize int
	batch     []streamRec
	catCh     chan []streamRec
	workCh    []chan []streamRec
}

var (
	termPI      = []byte("?>")
	termComment = []byte("-->")
	entLt       = []byte("&lt;")
	entGt       = []byte("&gt;")
	entAmp      = []byte("&amp;")
	entQuot     = []byte("&quot;")
	entApos     = []byte("&apos;")
)

func (p *streamParser) errf(format string, args ...any) error {
	if p.rerr != nil {
		return fmt.Errorf("shred: stream read: %w", p.rerr)
	}
	return fmt.Errorf("shred: stream offset %d: %s", p.off+int64(p.pos), fmt.Sprintf(format, args...))
}

func (p *streamParser) avail() int { return len(p.buf) - p.pos }

// refill compacts the window and reads more input. On any read error the
// parser behaves as at EOF and remembers a non-EOF cause.
func (p *streamParser) refill() {
	if p.pos > 0 {
		p.off += int64(p.pos)
		p.buf = p.buf[:copy(p.buf, p.buf[p.pos:])]
		p.pos = 0
	}
	if len(p.buf) == cap(p.buf) {
		// A single token outgrew the window; widen it.
		nb := make([]byte, len(p.buf), cap(p.buf)*2)
		copy(nb, p.buf)
		p.buf = nb
	}
	n, err := p.r.Read(p.buf[len(p.buf):cap(p.buf)])
	p.buf = p.buf[:len(p.buf)+n]
	if err != nil {
		p.eof = true
		if err != io.EOF {
			p.rerr = err
		}
	}
}

// need makes at least n unconsumed bytes available, reading as required; it
// reports false when the input ends first.
func (p *streamParser) need(n int) bool {
	for p.avail() < n && !p.eof {
		p.refill()
	}
	return p.avail() >= n
}

func (p *streamParser) peek() (byte, bool) {
	if !p.need(1) {
		return 0, false
	}
	return p.buf[p.pos], true
}

func (p *streamParser) hasPrefix(s string) bool {
	if !p.need(len(s)) {
		return false
	}
	return string(p.buf[p.pos:p.pos+len(s)]) == s
}

func (p *streamParser) skipSpace() {
	for {
		for p.pos < len(p.buf) {
			if !unicode.IsSpace(rune(p.buf[p.pos])) {
				return
			}
			p.pos++
		}
		if p.eof {
			return
		}
		p.refill()
	}
}

// skipPast advances past the next occurrence of term, which may span window
// boundaries; it reports false when the input ends first (everything
// consumed, as in xmltree).
func (p *streamParser) skipPast(term []byte) bool {
	for {
		if i := bytes.Index(p.buf[p.pos:], term); i >= 0 {
			p.pos += i + len(term)
			return true
		}
		// Keep a potential partial match at the window edge.
		if keep := len(term) - 1; p.avail() > keep {
			p.pos = len(p.buf) - keep
		}
		if p.eof {
			p.pos = len(p.buf)
			return false
		}
		p.refill()
	}
}

// skipSpaceAndMisc skips whitespace, comments, PIs and DOCTYPE declarations.
func (p *streamParser) skipSpaceAndMisc() {
	for {
		p.skipSpace()
		switch {
		case p.hasPrefix("<?"):
			p.pos += 2
			p.skipPast(termPI)
		case p.hasPrefix("<!--"):
			p.pos += 4
			p.skipPast(termComment)
		case p.hasPrefix("<!DOCTYPE"):
			p.skipDoctype()
		default:
			return
		}
	}
}

// skipDoctype consumes a DOCTYPE declaration up to its matching '>',
// accounting for an internal subset.
func (p *streamParser) skipDoctype() {
	depth := 0
	for {
		c, ok := p.peek()
		if !ok {
			return
		}
		p.pos++
		switch c {
		case '[':
			depth++
		case ']':
			depth--
		case '>':
			if depth <= 0 {
				return
			}
		}
	}
}

func isNameDelim(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '>' || c == '/' || c == '='
}

// scanName accumulates a tag or attribute name into the shared scratch
// buffer; the result is only valid until the next scanName call.
func (p *streamParser) scanName() []byte {
	p.scratch = p.scratch[:0]
	for {
		i := p.pos
		for i < len(p.buf) && !isNameDelim(p.buf[i]) {
			i++
		}
		p.scratch = append(p.scratch, p.buf[p.pos:i]...)
		p.pos = i
		if i < len(p.buf) || p.eof {
			return p.scratch
		}
		p.refill()
	}
}

// metaOf resolves (and on first sight validates, copies and caches) an
// element label held in scratch storage.
func (p *streamParser) metaOf(name []byte) (*labelMeta, error) {
	if m, ok := p.names[string(name)]; ok {
		return m, nil
	}
	s := string(name)
	if !p.d.Has(s) {
		return nil, fmt.Errorf("shred: element type %q %w", s, ErrNotInDTD)
	}
	m := &labelMeta{name: s, worker: int32(p.typeWorker[s])}
	p.names[s] = m
	return m, nil
}

func (p *streamParser) skipQuoted() error {
	q, ok := p.peek()
	if !ok || (q != '"' && q != '\'') {
		return p.errf("expected quoted attribute value")
	}
	p.pos++
	for {
		if i := bytes.IndexByte(p.buf[p.pos:], q); i >= 0 {
			p.pos += i + 1
			return nil
		}
		p.pos = len(p.buf)
		if p.eof {
			return p.errf("unterminated attribute value")
		}
		p.refill()
	}
}

// startTag consumes "<name ...>" or "<name .../>" and reports whether the
// element was self-closing. Attributes are parsed and discarded.
func (p *streamParser) startTag() (*labelMeta, bool, error) {
	p.pos++ // '<'
	name := p.scanName()
	if len(name) == 0 {
		return nil, false, p.errf("expected element name")
	}
	meta, err := p.metaOf(name)
	if err != nil {
		return nil, false, err
	}
	for {
		p.skipSpace()
		if p.hasPrefix("/>") {
			p.pos += 2
			return meta, true, nil
		}
		c, ok := p.peek()
		if !ok {
			return nil, false, p.errf("unterminated start tag <%s", meta.name)
		}
		if c == '>' {
			p.pos++
			return meta, false, nil
		}
		if attr := p.scanName(); len(attr) == 0 {
			return nil, false, p.errf("malformed start tag <%s", meta.name)
		}
		p.skipSpace()
		if c, ok := p.peek(); ok && c == '=' {
			p.pos++
			p.skipSpace()
			if err := p.skipQuoted(); err != nil {
				return nil, false, err
			}
		}
	}
}

func (p *streamParser) run() error {
	p.skipSpaceAndMisc()
	if c, ok := p.peek(); !ok || c != '<' {
		return p.errf("expected '<'")
	}
	if err := p.parseTree(); err != nil {
		return err
	}
	p.skipSpaceAndMisc()
	if p.rerr != nil {
		return fmt.Errorf("shred: stream read: %w", p.rerr)
	}
	if p.need(1) {
		return p.errf("trailing content")
	}
	return nil
}

// parseTree consumes the root element and its entire subtree iteratively,
// emitting one record per element as its end tag is read.
func (p *streamParser) parseTree() error {
	if err := p.openElement(); err != nil {
		return err
	}
	for len(p.stack) > 0 {
		if !p.need(1) {
			return p.errf("unterminated element <%s>", p.top().label.name)
		}
		switch {
		case p.hasPrefix("</"):
			if err := p.closeElement(); err != nil {
				return err
			}
		case p.hasPrefix("<!--"):
			p.flushSeg()
			p.pos += 4
			if !p.skipPast(termComment) {
				return p.errf("unterminated comment")
			}
		case p.buf[p.pos] == '<':
			p.flushSeg()
			if err := p.openElement(); err != nil {
				return err
			}
		default:
			p.scanText()
		}
	}
	return nil
}

func (p *streamParser) top() *streamFrame { return &p.stack[len(p.stack)-1] }

func (p *streamParser) openElement() error {
	meta, selfClose, err := p.startTag()
	if err != nil {
		return err
	}
	p.nextID++
	id := p.nextID
	f := 0
	if n := len(p.stack); n > 0 {
		f = p.stack[n-1].id
	}
	if selfClose {
		p.emit(meta, id, f, int32(len(p.stack)), "")
		return nil
	}
	// Push, reusing the popped frame's text capacity when available.
	if len(p.stack) < cap(p.stack) {
		p.stack = p.stack[:len(p.stack)+1]
		fr := p.top()
		fr.label, fr.id, fr.text = meta, id, fr.text[:0]
	} else {
		p.stack = append(p.stack, streamFrame{label: meta, id: id})
	}
	return nil
}

func (p *streamParser) closeElement() error {
	p.flushSeg()
	p.pos += 2 // "</"
	name := p.scanName()
	p.skipSpace()
	if c, ok := p.peek(); !ok || c != '>' {
		return p.errf("malformed end tag </%s", name)
	}
	p.pos++
	fr := p.top()
	if string(name) != fr.label.name {
		return p.errf("mismatched end tag </%s> for <%s>", name, fr.label.name)
	}
	f := 0
	if n := len(p.stack); n >= 2 {
		f = p.stack[n-2].id
	}
	val := string(bytes.TrimSpace(fr.text))
	p.emit(fr.label, fr.id, f, int32(len(p.stack)-1), val)
	p.stack = p.stack[:len(p.stack)-1]
	return nil
}

// scanText consumes raw text up to the next markup (or EOF) into the
// current segment buffer.
func (p *streamParser) scanText() {
	for {
		if i := bytes.IndexByte(p.buf[p.pos:], '<'); i >= 0 {
			p.seg = append(p.seg, p.buf[p.pos:p.pos+i]...)
			p.pos += i
			return
		}
		p.seg = append(p.seg, p.buf[p.pos:]...)
		p.pos = len(p.buf)
		if p.eof {
			return
		}
		p.refill()
	}
}

// flushSeg unescapes the pending text segment and appends it to the open
// element. Unescaping is per inter-markup segment, exactly as in
// xmltree.Parse.
func (p *streamParser) flushSeg() {
	if len(p.seg) == 0 {
		return
	}
	fr := p.top()
	fr.text = appendUnescaped(fr.text, p.seg)
	p.seg = p.seg[:0]
}

// appendUnescaped appends src to dst with the five predefined entities
// replaced, mirroring xmltree's unescaper (single pass, left to right,
// unknown entities kept literally).
func appendUnescaped(dst, src []byte) []byte {
	for {
		i := bytes.IndexByte(src, '&')
		if i < 0 {
			return append(dst, src...)
		}
		dst = append(dst, src[:i]...)
		src = src[i:]
		var rep byte
		var n int
		switch {
		case bytes.HasPrefix(src, entLt):
			rep, n = '<', len(entLt)
		case bytes.HasPrefix(src, entGt):
			rep, n = '>', len(entGt)
		case bytes.HasPrefix(src, entAmp):
			rep, n = '&', len(entAmp)
		case bytes.HasPrefix(src, entQuot):
			rep, n = '"', len(entQuot)
		case bytes.HasPrefix(src, entApos):
			rep, n = '\'', len(entApos)
		default:
			dst = append(dst, '&')
			src = src[1:]
			continue
		}
		dst = append(dst, rep)
		src = src[n:]
	}
}

// emit appends a completed element's record to the current batch and fans
// the batch out when full. end is the last ID assigned so far: every ID in
// (begin, end] belongs to the element's subtree.
func (p *streamParser) emit(meta *labelMeta, id, f int, level int32, val string) {
	p.batch = append(p.batch, streamRec{
		label:  meta.name,
		worker: meta.worker,
		val:    val,
		f:      f,
		t:      id,
		begin:  int64(id) - 1,
		end:    int64(p.nextID),
		level:  level,
	})
	if len(p.batch) >= p.batchSize {
		p.flushBatch()
	}
}

// flushBatch hands the current batch (shared, read-only) to the catalog
// goroutine and every relation worker.
func (p *streamParser) flushBatch() {
	if len(p.batch) == 0 {
		return
	}
	b := p.batch
	p.catCh <- b
	for _, ch := range p.workCh {
		ch <- b
	}
	p.batch = make([]streamRec, 0, p.batchSize)
}
