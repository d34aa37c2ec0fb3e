package xmlgen

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"

	"xpath2sql/internal/dtd"
	"xpath2sql/internal/xmltree"
)

// StreamOptions configures StreamGenerate. XL, XR, Seed and ValueFunc have
// the same meaning as in Options.
type StreamOptions struct {
	XL   int
	XR   int
	Seed int64
	// TargetBytes keeps generating until at least this many bytes have been
	// emitted: '*'-content directly under the root element repeats while the
	// target is unmet (the collection grows wide), and once it is reached
	// all remaining expansion turns minimal, so the document finishes within
	// one subtree of the target. 0 disables the target, leaving document
	// size to the ordinary XL/XR draws.
	TargetBytes int64
	// MaxElems suppresses optional content once this many elements have
	// been emitted (the streaming analog of Options.MaxNodes); 0 = unlimited.
	MaxElems int64
	// ValueFunc produces text values as in Options.
	ValueFunc func(typ string, r *rand.Rand) string
}

// StreamStats reports what StreamGenerate wrote.
type StreamStats struct {
	Elements int64
	Bytes    int64
}

// StreamGenerate writes a random document conforming to d directly to w,
// never materializing the tree: memory is bounded by the open-element depth
// (at most XL plus the required-content slack), independent of document
// size. This is the generator for the multi-gigabyte bulk-ingest documents
// the tree builder cannot hold.
//
// The output is compact (no indentation); elements appear in document order
// with text emitted where the content model declares it, so parsing the
// stream back — with xmltree.Parse or shred.StreamShred — yields exactly the
// labels, values and parent structure generated here.
//
// Generation is deterministic per seed but, being depth-first, does not
// reproduce the documents of Generate (which expands breadth-first).
func StreamGenerate(w io.Writer, d *dtd.DTD, opts StreamOptions) (StreamStats, error) {
	if err := d.Check(); err != nil {
		return StreamStats{}, err
	}
	if opts.XL <= 0 {
		opts.XL = 4
	}
	if opts.XR < 0 {
		return StreamStats{}, fmt.Errorf("xmlgen: negative XR")
	}
	if opts.XR == 0 {
		opts.XR = 12
	}
	if opts.ValueFunc == nil {
		opts.ValueFunc = func(typ string, r *rand.Rand) string {
			return fmt.Sprintf("%s-%d", typ, r.Intn(1000))
		}
	}
	g := &streamGen{
		d:    d,
		opts: opts,
		r:    rand.New(rand.NewSource(opts.Seed)),
		bw:   bufio.NewWriterSize(w, 64<<10),
	}
	if err := g.element(d.Root, 1); err != nil {
		return StreamStats{}, err
	}
	g.writeString("\n")
	if err := g.bw.Flush(); err != nil {
		return StreamStats{}, err
	}
	if g.werr != nil {
		return StreamStats{}, g.werr
	}
	return StreamStats{Elements: g.elems, Bytes: g.bytes}, nil
}

type streamGen struct {
	d     *dtd.DTD
	opts  StreamOptions
	r     *rand.Rand
	bw    *bufio.Writer
	werr  error
	bytes int64
	elems int64
}

func (g *streamGen) writeString(s string) {
	if g.werr != nil {
		return
	}
	n, err := g.bw.WriteString(s)
	g.bytes += int64(n)
	if err != nil {
		g.werr = err
	}
}

// over reports whether optional content should be suppressed from here on.
func (g *streamGen) over() bool {
	if g.werr != nil {
		return true
	}
	if g.opts.TargetBytes > 0 && g.bytes >= g.opts.TargetBytes {
		return true
	}
	return g.opts.MaxElems > 0 && g.elems >= g.opts.MaxElems
}

func (g *streamGen) element(label string, level int) error {
	if level > g.opts.XL+hardDepthSlack {
		return fmt.Errorf("xmlgen: required recursion of type %q exceeds depth %d; DTD recursion is not optional-guarded", label, level)
	}
	g.writeString("<")
	g.writeString(label)
	g.writeString(">")
	g.elems++
	minimal := level >= g.opts.XL || g.over()
	if err := g.content(g.d.Prods[label], label, level, minimal); err != nil {
		return err
	}
	g.writeString("</")
	g.writeString(label)
	g.writeString(">")
	return g.werr
}

func (g *streamGen) content(c dtd.Content, label string, level int, minimal bool) error {
	switch c := c.(type) {
	case dtd.Epsilon:
		return nil
	case dtd.Name:
		if c.Text {
			g.writeString(xmltree.EscapeText(g.opts.ValueFunc(label, g.r)))
			return nil
		}
		return g.element(c.Type, level+1)
	case dtd.Seq:
		for _, it := range c.Items {
			if err := g.content(it, label, level, minimal || g.over()); err != nil {
				return err
			}
		}
		return nil
	case dtd.Alt:
		if len(c.Items) == 0 {
			return nil
		}
		if minimal {
			return g.content(cheapest(c.Items), label, level, minimal)
		}
		return g.content(c.Items[g.r.Intn(len(c.Items))], label, level, minimal)
	case dtd.Star:
		if minimal {
			return nil
		}
		if level == 1 && g.opts.TargetBytes > 0 {
			// Root-level collection star: pump until the byte target is met.
			// A zero-progress iteration (the item expanded to nothing) stops
			// the pump rather than spinning.
			for !g.over() {
				before := g.bytes
				if err := g.content(c.Item, label, level, false); err != nil {
					return err
				}
				if g.bytes == before {
					return nil
				}
			}
			return nil
		}
		k := g.r.Intn(g.opts.XR + 1)
		for i := 0; i < k; i++ {
			if g.over() {
				return nil
			}
			if err := g.content(c.Item, label, level, false); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("xmlgen: unknown content %T", c)
}
