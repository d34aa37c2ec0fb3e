package ra

import "slices"

// Keys is what the rows of an operator's output are known to satisfy on a
// database that shreds a document: every stored R_A(F, T, V) holds one row per
// A node, with the node's parent in F — under shared inlining a node has one
// parent. It is derived from the plan alone, so it never enters a plan's
// printed form or its cache key. A translated program is stamped with its
// statements' keys (StampKeys); rdb reads them only on a database carrying the
// program's DTD fingerprint, and the SQL renderer for the database the program
// was translated for.
type Keys struct {
	// KeyedF and KeyedT: no two rows share their F, their T.
	KeyedF, KeyedT bool
	// Distinct: the operator derives no (F, T) pair twice from operands that
	// are sets, so its output needs no dedup — no pair set, no SELECT
	// DISTINCT, UNION ALL for UNION.
	Distinct bool
	// Edge: every row's F is its T's parent. Down: every row's F is its T or
	// one of T's ancestors (the virtual root 0 is every node's).
	Edge, Down bool
	// Type is the stored relation every row's T is a node of, "" when the rows
	// may reach several. Nodes of different types are different nodes.
	Type string
}

// stored is the keys of a stored relation.
func stored(rel string) Keys {
	return Keys{KeyedT: true, Distinct: true, Edge: true, Down: true, Type: rel}
}

// self is the keys of a relation of (x, x) rows.
var self = Keys{KeyedF: true, KeyedT: true, Distinct: true, Down: true}

// StampKeys derives the keys of every statement and records them in p.Keys,
// the stamp KeysOf reads. Call it once the program's statements are final.
func (p *Program) StampKeys() {
	p.Keys = make(map[string]Keys, len(p.Stmts))
	d := deriver{p: p, stamping: true}
	for _, s := range p.Stmts {
		if _, ok := p.Keys[s.Name]; !ok {
			d.stamp(s.Name, s.Plan)
		}
	}
}

// KeysOf derives the keys of pl, an operator of p, from the statement keys p
// is stamped with. It only reads p, so any number of executors may share it.
// An operator of a program not stamped is known to satisfy nothing.
func (p *Program) KeysOf(pl Plan) Keys {
	if p.Keys == nil {
		return Keys{}
	}
	d := deriver{p: p}
	return d.of(pl)
}

// Distinct is KeysOf(pl).Distinct, deriving no more of pl than it needs: a
// compose keyed on its right side's T is distinct whatever its left side, and
// a union is not once two of its operands may share a type.
func (p *Program) Distinct(pl Plan) bool {
	if p.Keys == nil {
		return false
	}
	d := deriver{p: p}
	switch pl := pl.(type) {
	case Compose:
		r := d.of(pl.R)
		return r.KeyedT || composes(d.of(pl.L), r)
	case UnionAll:
		var buf [16]string
		types := buf[:0]
		for _, kid := range pl.Kids {
			var other bool
			if types, other = newType(types, d.of(kid).Type); !other && len(pl.Kids) > 1 {
				return false
			}
		}
		return true
	}
	return d.of(pl).Distinct
}

// composes reports whether L∘R derives each pair once: t has one R row, f one
// L row, or f's child on the way down to t is the only node between them.
func composes(l, r Keys) bool { return r.KeyedT || l.KeyedF || l.Edge && r.Down }

// deriver applies one rule per operator to its operands' keys.
type deriver struct {
	p        *Program
	stamping bool // derive a statement not stamped yet on its first reference
}

func (d *deriver) stmt(name string) Keys {
	if k, ok := d.p.Keys[name]; ok || !d.stamping {
		return k
	}
	if def := d.p.Lookup(name); def != nil {
		return d.stamp(name, def)
	}
	return Keys{}
}

// stamp derives and records the keys of statement name ← def.
func (d *deriver) stamp(name string, def Plan) Keys {
	d.p.Keys[name] = Keys{} // a statement that reaches itself is known to satisfy nothing
	k := d.of(def)
	k.Distinct = true // a statement's table is a set
	d.p.Keys[name] = k
	return k
}

func (d *deriver) of(pl Plan) Keys {
	switch pl := pl.(type) {
	case Base:
		return stored(pl.Rel)
	case Temp:
		return d.stmt(pl.Name)
	case Ident, RootSeed:
		return self
	case IdentOf:
		c := d.of(pl.Child)
		k := self
		if k.Distinct = c.KeyedT; pl.OnF {
			k.Distinct = c.KeyedF
		} else {
			k.Type = c.Type
		}
		return k
	case Compose:
		l, r := d.of(pl.L), d.of(pl.R)
		return Keys{
			KeyedF:   l.KeyedF && r.KeyedF,
			KeyedT:   l.KeyedT && r.KeyedT,
			Distinct: composes(l, r),
			Down:     l.Down && r.Down,
			Type:     r.Type,
		}
	case UnionAll:
		return d.union(pl.Kids)
	case Fix:
		s := d.of(pl.Seed)
		return Keys{Down: s.Down, Type: s.Type}
	case DescScan:
		// The kernel pairs each distinct From node with its To descendants; the
		// alternative is a set the constraints filter.
		return Keys{Distinct: true, Down: true, Type: pl.To}
	case SelectVal:
		return d.filter(pl.Child)
	case SelectRoot:
		return d.filter(pl.Child)
	case Semijoin:
		return d.filter(pl.L)
	case Antijoin:
		return d.filter(pl.L)
	case Diff:
		return d.filter(pl.L)
	case TypeFilter:
		k := d.filter(pl.Child)
		if !pl.OnF {
			k.Type = pl.Rel
		}
		return k
	}
	return Keys{} // RecUnion: a fixpoint of tagged rows
}

// filter derives an operator that keeps some rows of one operand.
func (d *deriver) filter(pl Plan) Keys {
	k := d.of(pl)
	k.Distinct = true
	return k
}

// union derives a UnionAll. When its operands' types differ their rows are
// disjoint: no pair comes twice, and a T keyed in each is keyed in all. A set
// of edges is keyed on T however it was assembled: a node has one parent.
func (d *deriver) union(kids []Plan) Keys {
	u := Keys{KeyedF: len(kids) <= 1, KeyedT: true, Distinct: true, Edge: true, Down: true}
	var buf [16]string
	types := buf[:0]
	for i, kid := range kids {
		k := d.of(kid)
		u.KeyedF = u.KeyedF && k.KeyedF
		u.KeyedT = u.KeyedT && k.KeyedT
		u.Edge, u.Down = u.Edge && k.Edge, u.Down && k.Down
		if i == 0 || k.Type == u.Type {
			u.Type = k.Type
		} else {
			u.Type = ""
		}
		var other bool
		if types, other = newType(types, k.Type); !other && len(kids) > 1 {
			u.Distinct = false
		}
	}
	u.KeyedT = u.KeyedT && u.Distinct || u.Edge
	return u
}

// newType appends t to the types of a union's earlier operands, reporting
// whether it is a type none of them has: rows of different types are
// different rows.
func newType(types []string, t string) ([]string, bool) {
	return append(types, t), t != "" && !slices.Contains(types, t)
}
