package shred

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"xpath2sql/internal/dtd"
	"xpath2sql/internal/rdb"
	"xpath2sql/internal/xmltree"
)

// StreamOptions configures StreamShred.
type StreamOptions struct {
	// Workers is the number of relation-loading goroutines; values <= 0
	// select min(GOMAXPROCS, number of element types). Every element type is
	// owned by exactly one worker, so each relation has a single writer.
	Workers int
	// batchSize is the number of completed-element records per fan-out
	// batch; 0 selects 4096. Only the package's tests set it.
	batchSize int
}

const (
	metaSlots       = 64
	streamBatchSize = 4096
	streamChanDepth = 4
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

// streamBatch is one fan-out batch. The catalog writer and every relation
// worker read it; the last of them to release it puts it back on the
// free list the shredder fills its next batch from.
type streamBatch struct {
	recs []streamRec
	refs atomic.Int32
}

// streamBatches recycles batches. A consumer holds at most its channel's
// depth of them waiting and one it reads, and the shredder one it fills, so a
// free list of depth+2 drops none.
type streamBatches struct {
	free      chan *streamBatch
	consumers int32
	size      int
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
// relations without materializing the tree: one pass over the tokens of an
// xmltree.Tokenizer assigns dense preorder IDs and document-order intervals,
// interns each text value, and fans completed-element batches out to
// parallel relation loaders plus one catalog writer. The tokens are those
// xmltree.Parse builds its tree from, so the result is the relational
// instance, catalog and interval encoding of Shred(xmltree.Parse(text), d) —
// only the tuple insertion order differs (elements arrive in document
// postorder).
//
// Peak memory is the database being built plus O(window + open-element
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
	workers = max(1, min(workers, len(types)))
	batchSize := cmp.Or(opts.batchSize, streamBatchSize)

	db := rdb.NewDB()
	// Types() is sorted, so the type→worker assignment (type i to worker
	// i mod workers) is deterministic and each relation's tuple order
	// reproduces run to run.
	rels := make([]*rdb.Relation, len(types))
	labels := make([]int32, len(types)) // each type's symbol, interned before the parse
	for i, typ := range types {
		rels[i] = db.Rel(RelName(typ))
		labels[i] = db.Syms.Intern(typ)
	}

	// Every batch goes to each consumer's channel: the catalog writer's, then
	// each relation worker's.
	outs := make([]chan *streamBatch, 1+workers)
	for i := range outs {
		outs[i] = make(chan *streamBatch, streamChanDepth)
	}
	tableCh, workCh := outs[0], outs[1:]
	batches := &streamBatches{free: make(chan *streamBatch, streamChanDepth+2), consumers: int32(len(outs)), size: batchSize}

	var wg sync.WaitGroup
	// The catalog writer fills the node table — each node's parent, value,
	// element type and interval, a slot write per node — and is its single
	// writer. The DB's Labels map stays empty, as every bulk loader leaves it.
	wg.Add(1)
	iv := db.NewIntervalBuilder()
	go func() {
		defer wg.Done()
		for b := range tableCh {
			for i := range b.recs {
				rec := &b.recs[i]
				iv.SetNode(int(rec.t), int(rec.f), rec.sym, labels[rec.typ], rdb.NodeInterval{Begin: int64(rec.t) - 1, End: int64(rec.end), Level: rec.level})
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

	p := &streamShredder{
		tok:      xmltree.NewTokenizer(r),
		types:    types,
		syms:     map[string]int32{},
		interner: db.Syms,
		batches:  batches,
		outs:     outs,
	}
	for i, typ := range types {
		if typ != "" {
			slot := &p.metas[metaSlot([]byte(typ))]
			*slot = append(*slot, int32(i))
		}
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

// streamFrame is one open element.
type streamFrame struct {
	typ  int32
	id   int
	text int // where the element's direct text starts in streamShredder.text
}

// streamShredder turns the tokens of one document into records: it numbers
// the elements, resolves their types, interns their values and fans the
// records out in batches.
type streamShredder struct {
	tok *xmltree.Tokenizer
	// metas holds the numbers of the DTD's element types by metaSlot of
	// their names; the few types of one slot are told apart by name.
	metas [metaSlots][]int32
	types []string // DTD.Types(), numbering the element types
	// syms caches the interner's symbol of every text value seen, so a
	// repeated value is looked up by its bytes and never made a string.
	syms     map[string]int32
	interner *rdb.Interner

	stack []streamFrame
	// text holds the open elements' unescaped direct text, outermost first:
	// a child's is appended after its parent's and cut off at its end.
	text   []byte
	nextID int // last assigned preorder ID

	batches *streamBatches
	batch   *streamBatch
	outs    []chan *streamBatch
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
				p.emit(typ, p.nextID, p.parent(), int32(len(p.stack)), 0)
			} else {
				p.stack = append(p.stack, streamFrame{typ: typ, id: p.nextID, text: len(p.text)})
			}
		case xmltree.EndElement:
			fr := p.stack[len(p.stack)-1]
			p.stack = p.stack[:len(p.stack)-1]
			p.emit(fr.typ, fr.id, p.parent(), int32(len(p.stack)), p.intern(bytes.TrimSpace(p.text[fr.text:])))
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

// intern returns the symbol of a text value, made a string only on first
// sight.
func (p *streamShredder) intern(v []byte) int32 {
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
func (p *streamShredder) emit(typ int32, id, f int, level int32, sym int32) {
	p.batch.recs = append(p.batch.recs, streamRec{typ: typ, sym: sym, f: int32(f), t: int32(id), end: int32(p.nextID), level: level})
	if len(p.batch.recs) >= p.batches.size {
		p.flushBatch()
	}
}

// flushBatch hands the current batch (shared, read-only) to every consumer,
// and starts the next one.
func (p *streamShredder) flushBatch() {
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
