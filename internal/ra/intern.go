package ra

import "encoding/binary"

// Interner numbers plans by structure (hash-consing): two plans get the same
// number exactly when their String() are equal, without printing either. An
// operator's key is its tag, the attributes its printed form shows and the
// numbers of its Inputs, so numbering a plan costs one map lookup per node
// instead of one subtree print per node. A leaf keys by its printed form —
// Base{"x"} and Temp{"x"} print alike and so number alike. Attributes outside
// String() (Fix.Desc, RecUnion.Pairs and ResultTag) are outside the key. The zero value is not usable; call NewInterner.
type Interner struct {
	ids   map[string]int
	key   []byte
	stack []int
	// Lookups counts the nodes numbered so far, for tests that pin the work
	// to the plan's size.
	Lookups int
}

// NewInterner returns an empty interner. Numbers are dense from 0 and
// comparable only between plans numbered by the same interner.
func NewInterner() *Interner { return &Interner{ids: map[string]int{}} }

// Reset empties the interner for reuse, keeping its storage.
func (in *Interner) Reset() {
	clear(in.ids)
	in.stack, in.Lookups = in.stack[:0], 0
}

// Len returns how many distinct plans have been numbered.
func (in *Interner) Len() int { return len(in.ids) }

// ID numbers a plan, numbering every sub-plan on the way.
func (in *Interner) ID(pl Plan) int {
	var buf [4]Plan
	base := len(in.stack)
	for _, k := range Operands(buf[:0], pl) {
		id := in.ID(k)
		in.stack = append(in.stack, id)
	}
	id := in.Node(pl, in.stack[base:])
	in.stack = in.stack[:base]
	return id
}

// Node numbers one operator given the numbers of its Inputs, in Inputs order:
// the step of ID, for a caller that walks the plan itself and wants the
// number of every node it passes.
func (in *Interner) Node(pl Plan, inputs []int) int {
	in.Lookups++
	k := in.key[:0]
	str := func(s string) {
		k = binary.AppendUvarint(k, uint64(len(s)))
		k = append(k, s...)
	}
	flags := func(a, b bool) {
		var f byte
		if a {
			f |= 1
		}
		if b {
			f |= 2
		}
		k = append(k, f)
	}
	switch pl := pl.(type) {
	case Base, Temp, Ident, RootSeed:
		k = append(k, 'l')
		k = append(k, pl.String()...)
	case IdentOf:
		k = append(k, 'i')
		flags(pl.OnF, false)
	case Compose:
		k = append(k, 'c')
	case UnionAll:
		k = append(k, 'u')
	case Fix:
		k = append(k, 'f')
		flags(pl.Start != nil, pl.End != nil)
	case DescScan:
		k = append(k, 'd')
		flags(pl.Start != nil, pl.End != nil)
		str(pl.From)
		str(pl.To)
	case SelectVal:
		k = append(k, 'v')
		str(pl.Val)
	case SelectRoot:
		k = append(k, 'r')
	case Semijoin:
		k = append(k, 's')
	case Antijoin:
		k = append(k, 'a')
	case Diff:
		k = append(k, 'm')
	case TypeFilter:
		k = append(k, 't')
		flags(pl.OnF, false)
		str(pl.Rel)
	case RecUnion:
		k = append(k, 'R')
		k = binary.AppendUvarint(k, uint64(len(pl.Init)))
		k = binary.AppendUvarint(k, uint64(len(pl.Edges)))
		for _, t := range pl.Init {
			str(t.Tag)
		}
		for _, e := range pl.Edges {
			str(e.FromTag)
			str(e.ToTag)
		}
	}
	for _, id := range inputs {
		k = binary.AppendUvarint(k, uint64(id))
	}
	in.key = k
	id, ok := in.ids[string(k)]
	if !ok {
		id = len(in.ids)
		in.ids[string(k)] = id
	}
	return id
}
