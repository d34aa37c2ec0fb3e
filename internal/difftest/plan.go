package difftest

import (
	"fmt"

	"xpath2sql/internal/ra"
)

// Op names an operator Plan may draw. A suite passes the operators its
// engine takes; an operator named twice is drawn twice as often.
type Op int

// The operators. FixPaths is Fix, tracking paths in one draw in three.
const (
	Compose Op = iota
	UnionAll
	Fix
	FixPaths
	SelectVal
	SelectRoot
	Semijoin
	Antijoin
	Diff
	TypeFilter
	IdentOf
	RecUnion
	DescScan
	Ident
)

// Program draws a program over the relations R0 … R(nRels-1): one to four
// statements s0, s1, …, each a Plan one to three levels deep that may read
// the statements before it, the last one the result.
func Program(src Source, nRels int, ops []Op) *ra.Program {
	p := &ra.Program{}
	var temps []string
	for i, n := 0, 1+src.Intn(4); i < n; i++ {
		name := fmt.Sprintf("s%d", i)
		p.Stmts = append(p.Stmts, ra.Stmt{Name: name, Plan: Plan(src, 1+src.Intn(3), nRels, temps, ops)})
		temps = append(temps, name)
	}
	p.Result = temps[len(temps)-1]
	return p
}

// Plan draws a plan of operators from ops, at most depth levels deep, over
// the relations R0 … R(nRels-1) and the statements temps. Its leaves are a
// relation, a statement or the root seed; choice 0 is a leaf at every level.
// A DescScan's Alt is a fixpoint over a drawn seed, not what the scan
// answers: a suite that runs one on the interval kernel and on its
// alternative compares each with a fresh build, not with the other.
func Plan(src Source, depth, nRels int, temps []string, ops []Op) ra.Plan {
	rel := func() string { return fmt.Sprintf("R%d", src.Intn(nRels)) }
	k := 0
	if depth > 0 {
		k = src.Intn(len(ops) + 1)
	}
	if k == 0 {
		switch src.Intn(4) {
		case 0:
			if len(temps) > 0 {
				return ra.Temp{Name: temps[src.Intn(len(temps))]}
			}
			return ra.Base{Rel: rel()}
		case 1:
			return ra.RootSeed{}
		default:
			return ra.Base{Rel: rel()}
		}
	}
	kid := func() ra.Plan { return Plan(src, depth-1, nRels, temps, ops) }
	maybe := func(n int) ra.Plan {
		if src.Intn(n) == n-1 {
			return kid()
		}
		return nil
	}
	switch op := ops[k-1]; op {
	case Compose:
		return ra.Compose{L: kid(), R: kid()}
	case UnionAll:
		kids := []ra.Plan{kid(), kid()}
		if third := maybe(2); third != nil {
			kids = append(kids, third)
		}
		return ra.UnionAll{Kids: kids}
	case Fix, FixPaths:
		return ra.Fix{Seed: kid(), TrackPaths: op == FixPaths && src.Intn(3) == 2, Start: maybe(2), End: maybe(2)}
	case SelectVal:
		return ra.SelectVal{Child: kid(), Val: []string{"a", "b", "z"}[src.Intn(3)]}
	case SelectRoot:
		return ra.SelectRoot{Child: kid()}
	case Semijoin:
		return ra.Semijoin{L: kid(), R: kid()}
	case Antijoin:
		return ra.Antijoin{L: kid(), R: kid()}
	case Diff:
		return ra.Diff{L: kid(), R: kid()}
	case TypeFilter:
		return ra.TypeFilter{Child: kid(), Rel: rel(), OnF: src.Intn(2) == 1}
	case IdentOf:
		return ra.IdentOf{Child: kid(), OnF: src.Intn(2) == 1}
	case RecUnion:
		return ra.RecUnion{
			Init: []ra.Tagged{{Tag: "a", Plan: kid()}},
			Edges: []ra.RecEdge{
				{FromTag: "a", ToTag: "b", Rel: ra.Base{Rel: rel()}},
				{FromTag: "b", ToTag: "a", Rel: ra.Base{Rel: rel()}},
			},
			Pairs:     src.Intn(2) == 1,
			ResultTag: []string{"", "b"}[src.Intn(2)],
		}
	case DescScan:
		return ra.DescScan{From: rel(), To: rel(), Alt: ra.Fix{Seed: kid()}, Start: maybe(3), End: maybe(3)}
	default:
		return ra.Ident{}
	}
}
