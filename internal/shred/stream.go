package shred

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
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
	metaSlots       = 64
	streamBatchSize = 4096
	streamChanDepth = 4
	streamBufSize   = 64 << 10
)

// streamRec is one shredded element. It is emitted when the element's end
// tag is read: at that moment the subtree size — and hence the interval end
// — is known exactly, and the element's direct text is complete. It holds no
// pointer: the element type is its number in DTD.Types() order, the text its
// symbol in the database's interner, and begin is t−1.
type streamRec struct {
	typ, sym int32
	f, t     int32
	end      int32
	level    int32
}

// streamBatch is one fan-out batch. The two catalog writers and every
// relation worker read it; the last of them to release it puts it back on the
// free list the parser fills its next batch from.
type streamBatch struct {
	recs []streamRec
	refs atomic.Int32
}

// streamBatches recycles batches. A consumer holds at most its channel's
// depth of them waiting and one it reads, and the parser one it fills, so a
// free list of depth+2 drops none.
type streamBatches struct {
	free      chan *streamBatch
	consumers int32
	size      int
}

func newStreamBatches(consumers, size int) *streamBatches {
	return &streamBatches{free: make(chan *streamBatch, streamChanDepth+2), consumers: int32(consumers), size: size}
}

// get returns an empty batch, recycled when one is free.
func (bs *streamBatches) get() *streamBatch {
	select {
	case b := <-bs.free:
		return b
	default:
		return &streamBatch{recs: make([]streamRec, 0, bs.size)}
	}
}

// release drops one consumer's hold on b.
func (bs *streamBatches) release(b *streamBatch) {
	if b.refs.Add(-1) != 0 {
		return
	}
	b.recs = b.recs[:0]
	select {
	case bs.free <- b:
	default:
	}
}

// StreamShred shreds an XML document read from r into the per-type edge
// relations without materializing the tree: a single-pass SAX-style parser
// assigns dense preorder IDs and document-order intervals as it reads,
// interns each text value, and fans completed-element batches out to
// parallel relation loaders plus a catalog writer. The result is the same
// relational instance, catalog and interval encoding that
// Shred(xmltree.Parse(text), d) produces — only the tuple insertion order
// differs (elements arrive in document postorder).
//
// Peak memory is the database being built plus O(buffer + open-element
// stack + channel depth); the document text and the element tree are never
// held, and a pass allocates no record: batches are recycled, and a text
// value is a string once per distinct value. This is the bulk-ingest path
// for documents too large to parse into an xmltree.Document.
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
	// Types() is sorted, so the type→worker assignment (type i to worker
	// i mod workers) is deterministic and each relation's tuple order
	// reproduces run to run.
	rels := make([]*rdb.Relation, len(types))
	for i, typ := range types {
		rels[i] = db.Rel(RelName(typ))
	}

	// Every batch goes to each consumer's channel: the two catalog writers',
	// then each relation worker's.
	outs := make([]chan *streamBatch, 2+workers)
	for i := range outs {
		outs[i] = make(chan *streamBatch, streamChanDepth)
	}
	labelCh, tableCh, workCh := outs[0], outs[1], outs[2:]
	batches := newStreamBatches(len(outs), batchSize)

	var wg sync.WaitGroup
	// The catalog has two writers, each the single writer of what it writes:
	// one fills the DB's Labels map, the other the node table — each node's
	// parent, value and interval. Labels is the costlier by far; apart, its
	// writer is the only one the parser waits for.
	wg.Add(2)
	go func() {
		defer wg.Done()
		for b := range labelCh {
			for i := range b.recs {
				rec := &b.recs[i]
				db.Labels[int(rec.t)] = types[rec.typ]
			}
			batches.release(b)
		}
	}()
	iv := db.NewIntervalBuilder()
	go func() {
		defer wg.Done()
		for b := range tableCh {
			for i := range b.recs {
				rec := &b.recs[i]
				iv.SetNode(int(rec.t), int(rec.f), rec.sym, rdb.NodeInterval{Begin: int64(rec.t) - 1, End: int64(rec.end), Level: rec.level})
			}
			batches.release(b)
		}
	}()
	// Relation workers: each batch is shared read-only across all workers;
	// a worker appends only the records of its own types, so every relation
	// keeps a single writer. Every record is a node no relation holds yet,
	// so a row is appended without a probe.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := range workCh[w] {
				for i := range b.recs {
					rec := &b.recs[i]
					if int(rec.typ)%workers == w {
						rels[rec.typ].AppendNode(int(rec.f), int(rec.t), rec.sym)
					}
				}
				batches.release(b)
			}
		}(w)
	}

	p := &streamParser{
		r:        r,
		d:        d,
		buf:      make([]byte, 0, streamBufSize),
		types:    types,
		syms:     map[string]int32{},
		interner: db.Syms,
		batches:  batches,
		outs:     outs,
	}
	p.batch = batches.get()
	perr := p.run()
	if perr == nil {
		p.flushBatch()
	}
	for _, ch := range outs {
		close(ch)
	}
	wg.Wait()
	if perr != nil {
		return nil, perr
	}
	iv.Adopt()
	db.DTDFP = d.Fingerprint()
	return db, nil
}

// labelMeta is the per-element-type state the parser resolves once and then
// reuses: the canonical (allocated-once) label string and the type's number.
type labelMeta struct {
	name string
	typ  int32
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

	// metas holds the element types met so far by metaSlot of their names;
	// the few types of one slot are told apart by comparing names.
	metas [metaSlots][]*labelMeta
	types []string // DTD.Types(), numbering the element types
	// syms caches the interner's symbol of every text value seen, so a
	// repeated value is looked up by its bytes and never made a string.
	syms     map[string]int32
	interner *rdb.Interner

	stack   []streamFrame
	seg     []byte // raw text of the current inter-markup segment
	scratch []byte // name scratch, reused across tags

	nextID int // last assigned preorder ID

	batches *streamBatches
	batch   *streamBatch
	outs    []chan *streamBatch
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

// nameDelims marks the bytes that end a tag or attribute name.
var nameDelims = [256]bool{' ': true, '\t': true, '\n': true, '\r': true, '>': true, '/': true, '=': true}

// scanName scans a tag or attribute name. The result is only valid until the
// next scanName call or refill: a name the window holds whole is a slice of
// the window, one that runs past it is gathered in the shared scratch buffer.
func (p *streamParser) scanName() []byte {
	i := p.pos
	for i < len(p.buf) && !nameDelims[p.buf[i]] {
		i++
	}
	if i < len(p.buf) || p.eof {
		name := p.buf[p.pos:i]
		p.pos = i
		return name
	}
	p.scratch = p.scratch[:0]
	for {
		p.scratch = append(p.scratch, p.buf[p.pos:i]...)
		p.pos = i
		if i < len(p.buf) || p.eof {
			return p.scratch
		}
		p.refill()
		for i = p.pos; i < len(p.buf) && !nameDelims[p.buf[i]]; i++ {
		}
	}
}

// metaSlot spreads the element names of a DTD over the slots of
// streamParser.metas.
func metaSlot(name []byte) int {
	return (len(name) ^ int(name[0])<<1 ^ int(name[len(name)-1])<<3) & (metaSlots - 1)
}

// metaOf resolves (and on first sight validates, copies and caches) the
// element label scanName returned.
func (p *streamParser) metaOf(name []byte) (*labelMeta, error) {
	slot := &p.metas[metaSlot(name)]
	for _, m := range *slot {
		if string(name) == m.name {
			return m, nil
		}
	}
	s := string(name)
	if !p.d.Has(s) {
		return nil, fmt.Errorf("shred: element type %q %w", s, ErrNotInDTD)
	}
	m := &labelMeta{name: s, typ: int32(slices.Index(p.types, s))}
	*slot = append(*slot, m)
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
		p.emit(meta, id, f, int32(len(p.stack)), 0)
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
	fr := p.top()
	name := p.scanName()
	// The name is read before the window can move.
	match, shown := string(name) == fr.label.name, fr.label.name
	if !match {
		shown = string(name)
	}
	p.skipSpace()
	if c, ok := p.peek(); !ok || c != '>' {
		return p.errf("malformed end tag </%s", shown)
	}
	p.pos++
	if !match {
		return p.errf("mismatched end tag </%s> for <%s>", shown, fr.label.name)
	}
	f := 0
	if n := len(p.stack); n >= 2 {
		f = p.stack[n-2].id
	}
	p.emit(fr.label, fr.id, f, int32(len(p.stack)-1), p.intern(bytes.TrimSpace(fr.text)))
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

// intern returns the symbol of a text value, made a string only on first
// sight.
func (p *streamParser) intern(v []byte) int32 {
	if len(v) == 0 {
		return 0
	}
	if sym, ok := p.syms[string(v)]; ok {
		return sym
	}
	s := string(v)
	sym := p.interner.Intern(s)
	p.syms[s] = sym
	return sym
}

// emit appends a completed element's record to the current batch and fans
// the batch out when full. end is the last ID assigned so far: every ID in
// (begin, end] belongs to the element's subtree.
func (p *streamParser) emit(meta *labelMeta, id, f int, level int32, sym int32) {
	p.batch.recs = append(p.batch.recs, streamRec{
		typ:   meta.typ,
		sym:   sym,
		f:     int32(f),
		t:     int32(id),
		end:   int32(p.nextID),
		level: level,
	})
	if len(p.batch.recs) >= p.batches.size {
		p.flushBatch()
	}
}

// flushBatch hands the current batch (shared, read-only) to every consumer,
// and starts the next one.
func (p *streamParser) flushBatch() {
	b := p.batch
	if len(b.recs) == 0 {
		return
	}
	b.refs.Store(p.batches.consumers)
	for _, ch := range p.outs {
		ch <- b
	}
	p.batch = p.batches.get()
}
