package difftest

import (
	"fmt"
	"strings"

	"xpath2sql/internal/xpath"
)

// Query draws a query of the paper's fragment, depth levels deep, whose
// labels are drawn from labels: child and descendant steps, ε, *, unions and
// qualifiers — paths, text()=c with a c Value draws, not, and, or. At depth 0
// it is a label, * or ε; at a greater depth, choice 0 is a label.
func Query(src Source, labels []string, depth int) xpath.Path {
	return queries{src, labels, true}.path(depth)
}

// TextFreeQuery is Query without text()=c qualifiers, for a suite whose two
// sides hold different values.
func TextFreeQuery(src Source, labels []string, depth int) xpath.Path {
	return queries{src, labels, false}.path(depth)
}

// Qual draws a qualifier as Query does.
func Qual(src Source, labels []string, depth int) xpath.Qual {
	return queries{src, labels, true}.qual(depth)
}

type queries struct {
	src    Source
	labels []string
	text   bool
}

func (g queries) label() xpath.Label { return xpath.Label{Name: g.labels[g.src.Intn(len(g.labels))]} }

func (g queries) path(depth int) xpath.Path {
	if depth == 0 {
		switch g.src.Intn(4) {
		case 0:
			return xpath.Wildcard{}
		case 1:
			return xpath.Empty{}
		default:
			return g.label()
		}
	}
	switch g.src.Intn(8) {
	case 0:
		return g.label()
	case 1:
		return xpath.Seq{L: g.path(depth - 1), R: g.path(depth - 1)}
	case 2:
		return xpath.Desc{P: g.path(depth - 1)}
	case 3:
		return xpath.Seq{L: g.path(depth - 1), R: xpath.Desc{P: g.path(depth - 1)}}
	case 4:
		return xpath.Union{L: g.path(depth - 1), R: g.path(depth - 1)}
	case 5, 6:
		return xpath.Filter{P: g.path(depth - 1), Q: g.qual(depth - 1)}
	default:
		return xpath.Wildcard{}
	}
}

func (g queries) qual(depth int) xpath.Qual {
	if depth == 0 {
		return xpath.QPath{P: g.label()}
	}
	switch k := g.src.Intn(6); {
	case k < 2 || k == 2 && !g.text:
		return xpath.QPath{P: g.path(depth - 1)}
	case k == 2:
		return xpath.QText{C: value(g.src, g.label().Name)}
	case k == 3:
		return xpath.QNot{Q: g.qual(depth - 1)}
	case k == 4:
		return xpath.QAnd{L: g.qual(depth - 1), R: g.qual(depth - 1)}
	default:
		return xpath.QOr{L: g.qual(depth - 1), R: g.qual(depth - 1)}
	}
}

// QueryString draws a query as a client writes one, over the element types
// of a Rec: from the root doc, or in one draw in four from //t, one to three
// child or descendant steps, each to a type or, one in six, to *, and one in
// four with a qualifier — a child, a descendant pair, a negation or a val
// child's text. One query in five is the union of two such paths. Choice 0
// is the smaller shape throughout: the empty input draws doc/t0.
func QueryString(src Source, types []string) string {
	if src.Intn(5) == 4 {
		return pathString(src, types) + " | " + pathString(src, types)
	}
	return pathString(src, types)
}

func pathString(src Source, types []string) string {
	pick := func() string { return types[src.Intn(len(types))] }
	var b strings.Builder
	if src.Intn(4) == 3 {
		b.WriteString("//" + pick())
	} else {
		b.WriteString("doc")
	}
	for steps := 1 + src.Intn(3); steps > 0; steps-- {
		b.WriteString([]string{"/", "//"}[src.Intn(2)])
		if src.Intn(6) == 5 {
			b.WriteString("*")
		} else {
			b.WriteString(pick())
		}
		if src.Intn(4) == 3 {
			switch src.Intn(4) {
			case 0:
				fmt.Fprintf(&b, "[%s]", pick())
			case 1:
				fmt.Fprintf(&b, "[%s//%s]", pick(), pick())
			case 2:
				fmt.Fprintf(&b, "[not(%s)]", pick())
			default:
				fmt.Fprintf(&b, "[val[text()='%s']]", value(src, "val"))
			}
		}
	}
	return b.String()
}
