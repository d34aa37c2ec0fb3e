package shred

import (
	"bytes"
	"cmp"
	"fmt"
	"io"

	"xpath2sql/internal/dtd"
	"xpath2sql/internal/rdb"
	"xpath2sql/internal/xmltree"
)

// StreamOptions configures StreamShred.
type StreamOptions struct {
	// Workers places the loader: 1 runs it inline on the caller's goroutine,
	// between the parser's batches; any other value, 0 and below included,
	// runs it on a goroutine of its own beside the parser. A pass has those
	// two stages, so no value starts more than one goroutine.
	Workers int
	// batchSize is the number of completed-element records per batch; 0
	// selects 4096. Only the package's tests set it.
	batchSize int
}

const (
	metaSlots       = 64
	streamBatchSize = 4096
	// streamChanDepth lets the parser run a few batches ahead of a loader
	// that stalls on growing a relation's row arrays or the node table.
	streamChanDepth = 4
	// streamArenaBytes ends a batch early once its text arena holds this
	// much, which bounds an arena — and keeps its offsets in an int32 —
	// whatever the values' lengths.
	streamArenaBytes = 1 << 20
)

// streamRec is one shredded element. It is emitted when the element's end
// tag is read: at that moment the subtree size — and hence the interval end
// — is known exactly, and the element's direct text is complete. It holds no
// pointer: the element type is its number in DTD.Types() order, the trimmed
// text the n bytes at off in its batch's arena, and begin is t−1.
type streamRec struct {
	typ    int32
	f, t   int32
	end    int32
	level  int32
	off, n int32
}

// streamBatch is a run of records in document postorder and the arena that
// holds their text. The parser fills it and the loader empties it; a
// pipelined pass then hands it back to the parser through a free list.
type streamBatch struct {
	recs []streamRec
	text []byte
}

// StreamShred shreds an XML document read from r into the per-type edge
// relations without materializing the tree. It runs as two stages. The
// parser takes one pass over the tokens of an xmltree.Tokenizer, assigns
// dense preorder IDs and document-order intervals, resolves element types,
// and copies each element's trimmed text into its batch's arena. The loader
// takes the batches in order, interns each value, and writes the node's
// catalog row and its relation row. The tokens are those xmltree.Parse
// builds its tree from, and the loader interns in record order, so the
// result is the relational instance, catalog, interval encoding and symbol
// numbering of Shred(xmltree.Parse(text), d) — only the tuple insertion
// order differs (elements arrive in document postorder).
//
// Peak memory is the database being built plus O(window + open-element
// stack + channel depth × batch); the document text and the element tree
// are never held, and a pass allocates no record: batches are recycled, and
// a text value is a string once per distinct value. This is the bulk-ingest
// path for documents too large to parse into an xmltree.Document.
func StreamShred(r io.Reader, d *dtd.DTD, opts StreamOptions) (*rdb.DB, error) {
	types := d.Types()
	batchSize := cmp.Or(opts.batchSize, streamBatchSize)

	// The loader is each relation's and the node table's single writer. The
	// DB's Labels map stays empty, as every bulk loader leaves it.
	db := rdb.NewDB()
	l := &streamLoader{
		rels:     make([]*rdb.Relation, len(types)),
		labels:   make([]int32, len(types)),
		iv:       db.NewIntervalBuilder(),
		syms:     map[string]int32{},
		interner: db.Syms,
	}
	for i, typ := range types {
		l.rels[i] = db.Rel(RelName(typ))
		l.labels[i] = db.Syms.Intern(typ)
	}

	p := &streamShredder{
		tok:     xmltree.NewTokenizer(r),
		types:   types,
		batch:   &streamBatch{recs: make([]streamRec, 0, batchSize)},
		size:    batchSize,
		handoff: l.load,
	}
	for i, typ := range types {
		if typ != "" {
			slot := &p.metas[metaSlot([]byte(typ))]
			*slot = append(*slot, int32(i))
		}
	}
	wait := func() {}
	if opts.Workers != 1 {
		// The loader holds one batch, the channel depth more wait for it, and
		// the parser fills one: a free list of depth+2 drops none.
		full, free := make(chan *streamBatch, streamChanDepth), make(chan *streamBatch, streamChanDepth+2)
		loaded := make(chan struct{})
		go func() {
			defer close(loaded)
			for b := range full {
				free <- l.load(b)
			}
		}()
		p.handoff = func(b *streamBatch) *streamBatch {
			full <- b
			select {
			case b = <-free:
				return b
			default:
				return &streamBatch{recs: make([]streamRec, 0, batchSize)}
			}
		}
		wait = func() { close(full); <-loaded }
	}
	perr := p.run()
	if perr == nil {
		p.flush()
	}
	wait()
	if perr != nil {
		return nil, perr
	}
	l.iv.Adopt()
	db.DTDFP = d.Fingerprint()
	return db, nil
}

// streamFrame is one open element.
type streamFrame struct {
	typ  int32
	id   int
	text int // where the element's direct text starts in streamShredder.text
}

// streamShredder is the parser stage: it turns the tokens of one document
// into records, numbering the elements and resolving their types, and hands
// them on in batches.
type streamShredder struct {
	tok *xmltree.Tokenizer
	// metas holds the numbers of the DTD's element types by metaSlot of
	// their names; the few types of one slot are told apart by name.
	metas [metaSlots][]int32
	types []string // DTD.Types(), numbering the element types

	stack []streamFrame
	// text holds the open elements' unescaped direct text, outermost first:
	// a child's is appended after its parent's and cut off at its end.
	text   []byte
	nextID int // last assigned preorder ID

	batch *streamBatch
	size  int
	// handoff gives the loader a full batch and returns an empty one.
	handoff func(*streamBatch) *streamBatch
}

// run reads the document, emitting each element's record when it closes.
func (p *streamShredder) run() error {
	for {
		tok, err := p.tok.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		switch tok.Kind {
		case xmltree.StartElement:
			typ, err := p.typeOf(tok.Data)
			if err != nil {
				return err
			}
			p.nextID++
			if tok.SelfClosing {
				p.emit(typ, p.nextID, p.parent(), int32(len(p.stack)), nil)
			} else {
				p.stack = append(p.stack, streamFrame{typ: typ, id: p.nextID, text: len(p.text)})
			}
		case xmltree.EndElement:
			fr := p.stack[len(p.stack)-1]
			p.stack = p.stack[:len(p.stack)-1]
			p.emit(fr.typ, fr.id, p.parent(), int32(len(p.stack)), bytes.TrimSpace(p.text[fr.text:]))
			p.text = p.text[:fr.text]
		case xmltree.Text:
			p.text = append(p.text, tok.Data...)
		}
	}
}

// metaSlot spreads the element names of a DTD over the slots of
// streamShredder.metas.
func metaSlot(name []byte) int {
	return (len(name) ^ int(name[0])<<1 ^ int(name[len(name)-1])<<3) & (metaSlots - 1)
}

// typeOf returns an element name's type number.
func (p *streamShredder) typeOf(name []byte) (int32, error) {
	for _, typ := range p.metas[metaSlot(name)] {
		if string(name) == p.types[typ] {
			return typ, nil
		}
	}
	return 0, fmt.Errorf("shred: element type %q %w", name, ErrNotInDTD)
}

// parent returns the ID of the innermost open element, 0 at the root.
func (p *streamShredder) parent() int {
	if n := len(p.stack); n > 0 {
		return p.stack[n-1].id
	}
	return 0
}

// emit appends a completed element's record, and its text to the arena, to
// the current batch, and hands the batch on when full. end is the last ID
// assigned so far: every ID in (begin, end] belongs to the element's
// subtree.
func (p *streamShredder) emit(typ int32, id, f int, level int32, text []byte) {
	b := p.batch
	b.recs = append(b.recs, streamRec{typ: typ, f: int32(f), t: int32(id), end: int32(p.nextID), level: level, off: int32(len(b.text)), n: int32(len(text))})
	b.text = append(b.text, text...)
	if len(b.recs) >= p.size || len(b.text) >= streamArenaBytes {
		p.flush()
	}
}

// flush hands the current batch, unless empty, to the loader.
func (p *streamShredder) flush() {
	if len(p.batch.recs) > 0 {
		p.batch = p.handoff(p.batch)
	}
}

// streamLoader is the loader stage: it interns the records' values in record
// order and writes each node's catalog row and relation row.
type streamLoader struct {
	rels   []*rdb.Relation // by type number
	labels []int32         // each type's symbol, interned before the parse
	iv     *rdb.IntervalBuilder
	// syms caches the interner's symbol of every value seen, so a repeated
	// value is looked up by its bytes and never made a string.
	syms     map[string]int32
	interner *rdb.Interner
}

// load stores a batch's records and returns the batch emptied. Every record
// is a node no relation holds yet, so a row is appended without a probe.
func (l *streamLoader) load(b *streamBatch) *streamBatch {
	for i := range b.recs {
		rec := &b.recs[i]
		sym := l.intern(b.text[rec.off : rec.off+rec.n])
		l.iv.SetNode(int(rec.t), int(rec.f), sym, l.labels[rec.typ], rdb.NodeInterval{Begin: int64(rec.t) - 1, End: int64(rec.end), Level: rec.level})
		l.rels[rec.typ].AppendNode(int(rec.f), int(rec.t), sym)
	}
	b.recs, b.text = b.recs[:0], b.text[:0]
	return b
}

// intern returns the symbol of a text value, made a string only on first
// sight.
func (l *streamLoader) intern(v []byte) int32 {
	if len(v) == 0 {
		return 0
	}
	if sym, ok := l.syms[string(v)]; ok {
		return sym
	}
	s := string(v)
	sym := l.interner.Intern(s)
	l.syms[s] = sym
	return sym
}
