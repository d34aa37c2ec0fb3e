package xmltree

import (
	"bytes"
	"fmt"
	"io"
	"strings"
)

// Parse reads an XML document in the repository's dialect (see Tokenizer)
// and builds its tree, numbering the elements in preorder. Mixed content is
// supported: the concatenated, trimmed text of an element becomes its Val.
// Each distinct label is one string, so the tree holds no part of the input.
func Parse(input string) (*Document, error) {
	t := NewTokenizer(strings.NewReader(input))
	d := &Document{}
	labels := map[string]string{}
	var recent [64]string
	// The open elements, and where each one's direct text starts in text:
	// a child's text is appended after its parent's and cut off at its end.
	type frame struct {
		n    *Node
		text int
	}
	stack, text := make([]frame, 0, 32), make([]byte, 0, 256) // on the stack until outgrown
	for {
		tok, err := t.Next()
		if err == io.EOF {
			return d, nil
		}
		if err != nil {
			return nil, err
		}
		switch tok.Kind {
		case StartElement:
			// A direct-mapped cache answers most lookups without hashing;
			// a label it evicts goes to the map.
			name := tok.Data
			slot := &recent[(len(name)^int(name[0])<<1^int(name[len(name)-1])<<3)%len(recent)]
			label := *slot
			if label != string(name) {
				if label != "" {
					labels[label] = label
				}
				if label = labels[string(name)]; label == "" {
					label = string(name)
				}
				*slot = label
			}
			n := &Node{Label: label}
			d.index = append(d.index, n)
			n.ID = NodeID(len(d.index))
			if len(stack) == 0 {
				d.Root = n
			} else {
				n.Parent = stack[len(stack)-1].n
				n.Parent.Children = append(n.Parent.Children, n)
			}
			if !tok.SelfClosing {
				stack = append(stack, frame{n, len(text)})
			}
		case EndElement:
			fr := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			fr.n.Val = string(bytes.TrimSpace(text[fr.text:]))
			text = text[:fr.text]
		case Text:
			text = append(text, tok.Data...)
		}
	}
}

var escaper = strings.NewReplacer(
	"&", "&amp;", "<", "&lt;", ">", "&gt;",
)

// EscapeText escapes s for use as character data: '&', '<' and '>' become
// entity references.
func EscapeText(s string) string { return escaper.Replace(s) }

// Serialize renders the document as indented XML text.
func (d *Document) Serialize() string {
	var b strings.Builder
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		indent := strings.Repeat("  ", depth)
		if len(n.Children) == 0 && n.Val == "" {
			fmt.Fprintf(&b, "%s<%s/>\n", indent, n.Label)
			return
		}
		fmt.Fprintf(&b, "%s<%s>%s", indent, n.Label, EscapeText(n.Val))
		if len(n.Children) > 0 {
			b.WriteString("\n")
			for _, c := range n.Children {
				walk(c, depth+1)
			}
			b.WriteString(indent)
		}
		fmt.Fprintf(&b, "</%s>\n", n.Label)
	}
	if d.Root != nil {
		walk(d.Root, 0)
	}
	return b.String()
}
