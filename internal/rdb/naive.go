package rdb

import (
	"fmt"
	"sort"

	"xpath2sql/internal/ra"
)

// This file retains the seed engine verbatim in spirit: map[uint64]struct{}
// dedup, lazy map[int][]int32 indexes invalidated on every insert, 40-byte
// string-carrying tuples, and strictly single-threaded operators. It is the
// oracle of the differential property tests — the compact engine must
// produce identical (F, T) sets on random programs.
//
// It must stay dumb. Do not optimize it.

// naiveRel is the seed's Relation: tuples with inline strings, map-based
// (F, T) dedup, and lazy indexes discarded on every insert.
type naiveRel struct {
	tuples []Tuple
	key    map[uint64]struct{}
	byF    map[int][]int32
	byT    map[int][]int32
}

func naiveKey(f, t int) uint64 {
	return uint64(uint32(f))<<32 | uint64(uint32(t))
}

func newNaiveRel() *naiveRel {
	return &naiveRel{key: map[uint64]struct{}{}}
}

func (r *naiveRel) add(f, t int, v string) bool {
	k := naiveKey(f, t)
	if _, dup := r.key[k]; dup {
		return false
	}
	r.key[k] = struct{}{}
	r.tuples = append(r.tuples, Tuple{F: f, T: t, V: v})
	r.byF, r.byT = nil, nil // seed behavior: invalidate indexes
	return true
}

func (r *naiveRel) has(f, t int) bool {
	_, ok := r.key[naiveKey(f, t)]
	return ok
}

func (r *naiveRel) indexF(f int) []int32 {
	if r.byF == nil {
		r.byF = map[int][]int32{}
		for i := range r.tuples {
			r.byF[r.tuples[i].F] = append(r.byF[r.tuples[i].F], int32(i))
		}
	}
	return r.byF[f]
}

func (r *naiveRel) indexT(t int) []int32 {
	if r.byT == nil {
		r.byT = map[int][]int32{}
		for i := range r.tuples {
			r.byT[r.tuples[i].T] = append(r.byT[r.tuples[i].T], int32(i))
		}
	}
	return r.byT[t]
}

func (r *naiveRel) fSet() map[int]struct{} {
	out := make(map[int]struct{}, len(r.tuples))
	for i := range r.tuples {
		out[r.tuples[i].F] = struct{}{}
	}
	return out
}

func (r *naiveRel) tSet() map[int]struct{} {
	out := make(map[int]struct{}, len(r.tuples))
	for i := range r.tuples {
		out[r.tuples[i].T] = struct{}{}
	}
	return out
}

// NaiveResult is the answer of a naive run, in the seed's exchange form.
type NaiveResult struct {
	rel *naiveRel
}

// Len returns the tuple count.
func (n *NaiveResult) Len() int { return len(n.rel.tuples) }

// Has reports whether (f, t) is present.
func (n *NaiveResult) Has(f, t int) bool { return n.rel.has(f, t) }

// Tuples returns the result tuples in insertion order.
func (n *NaiveResult) Tuples() []Tuple { return n.rel.tuples }

// TIDs returns the sorted distinct T values.
func (n *NaiveResult) TIDs() []int {
	set := n.rel.tSet()
	out := make([]int, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Ints(out)
	return out
}

// NaiveExec is the retained seed evaluator; see the file comment. Base
// relations are converted out of the compact store once, on first touch.
type NaiveExec struct {
	DB    *DB
	Stats Stats

	base  map[string]*naiveRel
	env   map[string]*naiveRel
	run   map[string]bool
	ident *naiveRel
	prog  *ra.Program
}

// NewNaiveExec returns a naive evaluator over the database.
func NewNaiveExec(db *DB) *NaiveExec {
	return &NaiveExec{DB: db, base: map[string]*naiveRel{}}
}

func (e *NaiveExec) baseRel(name string) *naiveRel {
	if r, ok := e.base[name]; ok {
		return r
	}
	src := e.DB.Rel(name)
	r := newNaiveRel()
	for _, t := range src.Tuples() {
		r.add(t.F, t.T, t.V)
	}
	e.base[name] = r
	return r
}

// Run evaluates the program with the seed engine and returns its result.
func (e *NaiveExec) Run(p *ra.Program) (*NaiveResult, error) {
	e.prog = p
	e.env = map[string]*naiveRel{}
	e.run = map[string]bool{}
	rel, err := e.stmt(p.Result)
	if err != nil {
		return nil, err
	}
	return &NaiveResult{rel: rel}, nil
}

func (e *NaiveExec) stmt(name string) (*naiveRel, error) {
	if r, ok := e.env[name]; ok {
		return r, nil
	}
	if e.run[name] {
		return nil, fmt.Errorf("rdb: cyclic statement reference %q", name)
	}
	pl := e.prog.Lookup(name)
	if pl == nil {
		return nil, fmt.Errorf("rdb: unknown statement %q", name)
	}
	e.run[name] = true
	r, err := e.eval(pl)
	delete(e.run, name)
	if err != nil {
		return nil, err
	}
	e.Stats.StmtsRun++
	e.env[name] = r
	return r, nil
}

func (e *NaiveExec) eval(pl ra.Plan) (*naiveRel, error) {
	switch pl := pl.(type) {
	case ra.Base:
		return e.baseRel(pl.Rel), nil
	case ra.Temp:
		return e.stmt(pl.Name)
	case ra.Ident:
		return e.identRel(), nil
	case ra.IdentOf:
		child, err := e.eval(pl.Child)
		if err != nil {
			return nil, err
		}
		out := newNaiveRel()
		if pl.OnF {
			for f := range child.fSet() {
				out.add(f, f, e.DB.Val(f))
			}
		} else {
			for t := range child.tSet() {
				out.add(t, t, e.DB.Val(t))
			}
		}
		e.Stats.TuplesOut += len(out.tuples)
		return out, nil
	case ra.Compose:
		l, err := e.eval(pl.L)
		if err != nil {
			return nil, err
		}
		r, err := e.eval(pl.R)
		if err != nil {
			return nil, err
		}
		return e.compose(l, r), nil
	case ra.UnionAll:
		out := newNaiveRel()
		for i, k := range pl.Kids {
			kr, err := e.eval(k)
			if err != nil {
				return nil, err
			}
			if i > 0 {
				e.Stats.Unions++
			}
			for _, t := range kr.tuples {
				if out.add(t.F, t.T, t.V) {
					e.Stats.TuplesOut++
				}
			}
		}
		return out, nil
	case ra.Fix:
		return e.fix(pl)
	case ra.SelectVal:
		child, err := e.eval(pl.Child)
		if err != nil {
			return nil, err
		}
		out := newNaiveRel()
		for _, t := range child.tuples {
			if t.V == pl.Val {
				out.add(t.F, t.T, t.V)
			}
		}
		e.Stats.TuplesOut += len(out.tuples)
		return out, nil
	case ra.SelectRoot:
		child, err := e.eval(pl.Child)
		if err != nil {
			return nil, err
		}
		out := newNaiveRel()
		for _, t := range child.tuples {
			if t.F == 0 {
				out.add(t.F, t.T, t.V)
			}
		}
		e.Stats.TuplesOut += len(out.tuples)
		return out, nil
	case ra.Semijoin:
		l, err := e.eval(pl.L)
		if err != nil {
			return nil, err
		}
		r, err := e.eval(pl.R)
		if err != nil {
			return nil, err
		}
		e.Stats.Joins++
		wit := r.fSet()
		out := newNaiveRel()
		for _, t := range l.tuples {
			if _, ok := wit[t.T]; ok {
				out.add(t.F, t.T, t.V)
			}
		}
		e.Stats.TuplesOut += len(out.tuples)
		return out, nil
	case ra.Antijoin:
		l, err := e.eval(pl.L)
		if err != nil {
			return nil, err
		}
		r, err := e.eval(pl.R)
		if err != nil {
			return nil, err
		}
		e.Stats.Joins++
		wit := r.fSet()
		out := newNaiveRel()
		for _, t := range l.tuples {
			if _, ok := wit[t.T]; !ok {
				out.add(t.F, t.T, t.V)
			}
		}
		e.Stats.TuplesOut += len(out.tuples)
		return out, nil
	case ra.Diff:
		l, err := e.eval(pl.L)
		if err != nil {
			return nil, err
		}
		r, err := e.eval(pl.R)
		if err != nil {
			return nil, err
		}
		out := newNaiveRel()
		for _, t := range l.tuples {
			if !r.has(t.F, t.T) {
				out.add(t.F, t.T, t.V)
			}
		}
		e.Stats.TuplesOut += len(out.tuples)
		return out, nil
	case ra.RootSeed:
		out := newNaiveRel()
		out.add(0, 0, "")
		return out, nil
	case ra.TypeFilter:
		child, err := e.eval(pl.Child)
		if err != nil {
			return nil, err
		}
		e.Stats.Joins++
		typed := e.baseRel(pl.Rel).tSet()
		out := newNaiveRel()
		for _, t := range child.tuples {
			col := t.T
			if pl.OnF {
				col = t.F
			}
			if _, ok := typed[col]; ok {
				out.add(t.F, t.T, t.V)
			}
		}
		e.Stats.TuplesOut += len(out.tuples)
		return out, nil
	case ra.RecUnion:
		return e.recUnion(pl)
	case ra.DescScan:
		// The seed engine has no interval encoding: always the fallback
		// alternative, with the pushed constraints as dumb post-filters.
		alt, err := e.eval(pl.Alt)
		if err != nil {
			return nil, err
		}
		var startSet, endSet map[int]struct{}
		if pl.Start != nil {
			s, err := e.eval(pl.Start)
			if err != nil {
				return nil, err
			}
			startSet = s.tSet()
		}
		if pl.End != nil {
			s, err := e.eval(pl.End)
			if err != nil {
				return nil, err
			}
			endSet = s.fSet()
		}
		if startSet == nil && endSet == nil {
			return alt, nil
		}
		out := newNaiveRel()
		for _, t := range alt.tuples {
			if startSet != nil {
				if _, ok := startSet[t.F]; !ok {
					continue
				}
			}
			if endSet != nil {
				if _, ok := endSet[t.T]; !ok {
					continue
				}
			}
			if out.add(t.F, t.T, t.V) {
				e.Stats.TuplesOut++
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("rdb: unsupported plan %T", pl)
}

func (e *NaiveExec) identRel() *naiveRel {
	if e.ident == nil {
		r := newNaiveRel()
		r.add(0, 0, "")
		e.DB.EachNode(func(id int) { r.add(id, id, e.DB.Val(id)) })
		e.ident = r
	}
	return e.ident
}

func (e *NaiveExec) compose(l, r *naiveRel) *naiveRel {
	e.Stats.Joins++
	out := newNaiveRel()
	if len(l.tuples) <= len(r.tuples) {
		for _, lt := range l.tuples {
			for _, pos := range r.indexF(lt.T) {
				rt := r.tuples[pos]
				if out.add(lt.F, rt.T, rt.V) {
					e.Stats.TuplesOut++
				}
			}
		}
	} else {
		for _, rt := range r.tuples {
			for _, pos := range l.indexT(rt.F) {
				lt := l.tuples[pos]
				if out.add(lt.F, rt.T, rt.V) {
					e.Stats.TuplesOut++
				}
			}
		}
	}
	return out
}

func (e *NaiveExec) fix(pl ra.Fix) (*naiveRel, error) {
	seed, err := e.eval(pl.Seed)
	if err != nil {
		return nil, err
	}
	e.Stats.LFPs++
	var startSet, endSet map[int]struct{}
	if pl.Start != nil {
		s, err := e.eval(pl.Start)
		if err != nil {
			return nil, err
		}
		startSet = s.tSet()
	}
	if pl.End != nil {
		s, err := e.eval(pl.End)
		if err != nil {
			return nil, err
		}
		endSet = s.fSet()
	}

	out := newNaiveRel()
	addOut := func(f, t int, v string) bool {
		if out.add(f, t, v) {
			e.Stats.TuplesOut++
			return true
		}
		return false
	}

	switch {
	case startSet != nil:
		var delta []Tuple
		for _, t := range seed.tuples {
			if _, ok := startSet[t.F]; ok {
				if addOut(t.F, t.T, t.V) {
					delta = append(delta, t)
				}
			}
		}
		for len(delta) > 0 {
			e.Stats.LFPIters++
			e.Stats.Joins++
			var next []Tuple
			for _, d := range delta {
				for _, pos := range seed.indexF(d.T) {
					st := seed.tuples[pos]
					if addOut(d.F, st.T, st.V) {
						next = append(next, Tuple{F: d.F, T: st.T, V: st.V})
					}
				}
			}
			e.Stats.Unions++
			delta = next
		}
		if endSet != nil {
			filtered := newNaiveRel()
			for _, t := range out.tuples {
				if _, ok := endSet[t.T]; ok {
					filtered.add(t.F, t.T, t.V)
				}
			}
			out = filtered
		}
	case endSet != nil:
		var delta []Tuple
		for _, t := range seed.tuples {
			if _, ok := endSet[t.T]; ok {
				if addOut(t.F, t.T, t.V) {
					delta = append(delta, t)
				}
			}
		}
		for len(delta) > 0 {
			e.Stats.LFPIters++
			e.Stats.Joins++
			var next []Tuple
			for _, d := range delta {
				for _, pos := range seed.indexT(d.F) {
					st := seed.tuples[pos]
					if addOut(st.F, d.T, d.V) {
						next = append(next, Tuple{F: st.F, T: d.T, V: d.V})
					}
				}
			}
			e.Stats.Unions++
			delta = next
		}
	default:
		delta := append([]Tuple(nil), seed.tuples...)
		for _, t := range delta {
			addOut(t.F, t.T, t.V)
		}
		for len(delta) > 0 {
			e.Stats.LFPIters++
			e.Stats.Joins++
			var next []Tuple
			for _, d := range delta {
				for _, pos := range seed.indexF(d.T) {
					st := seed.tuples[pos]
					if addOut(d.F, st.T, st.V) {
						next = append(next, Tuple{F: d.F, T: st.T, V: st.V})
					}
				}
			}
			e.Stats.Unions++
			delta = next
		}
	}
	return out, nil
}

func (e *NaiveExec) recUnion(pl ra.RecUnion) (*naiveRel, error) {
	e.Stats.RecFixes++
	type tagged struct {
		t   Tuple
		tag string
	}
	type tkey struct {
		tag  string
		f, t int
	}
	seen := map[tkey]struct{}{}
	all := newNaiveRel()
	result := all
	if pl.ResultTag != "" {
		result = newNaiveRel()
	}
	var acc []tagged
	grew := false
	add := func(tag string, t Tuple) {
		k := tkey{tag: tag, f: t.F, t: t.T}
		if _, dup := seen[k]; dup {
			return
		}
		seen[k] = struct{}{}
		all.add(t.F, t.T, t.V)
		if pl.ResultTag != "" && tag == pl.ResultTag {
			result.add(t.F, t.T, t.V)
		}
		e.Stats.TuplesOut++
		acc = append(acc, tagged{t: t, tag: tag})
		grew = true
	}
	for _, init := range pl.Init {
		r, err := e.eval(init.Plan)
		if err != nil {
			return nil, err
		}
		for _, t := range r.tuples {
			add(init.Tag, t)
		}
	}
	edgeRels := make([]*naiveRel, len(pl.Edges))
	for i, ed := range pl.Edges {
		r, err := e.eval(ed.Rel)
		if err != nil {
			return nil, err
		}
		edgeRels[i] = r
	}
	for grew = true; grew; {
		grew = false
		e.Stats.LFPIters++
		snapshot := len(acc)
		for i, ed := range pl.Edges {
			e.Stats.Joins++
			e.Stats.Unions++
			rel := edgeRels[i]
			for j := 0; j < snapshot; j++ {
				d := acc[j]
				if d.tag != ed.FromTag {
					continue
				}
				for _, pos := range rel.indexF(d.t.T) {
					et := rel.tuples[pos]
					if pl.Pairs {
						add(ed.ToTag, Tuple{F: d.t.F, T: et.T, V: et.V})
					} else {
						add(ed.ToTag, et)
					}
				}
			}
		}
	}
	return result, nil
}
