// Package cost implements the cost model the paper lists as follow-up work
// (§8: "we are currently developing a cost model in order to provide better
// guidance for xpath query rewriting"). It estimates cardinalities and
// per-operator work for relational programs over a shredded database, and
// uses the estimates to choose a translation strategy per query.
//
// The model is deliberately simple — textbook equijoin estimation plus
// fixpoint-specific rules reflecting the engine's execution (§3): a
// single-input Φ produces about |seed paths| × depth tuples and costs one
// probe per produced tuple; the multi-relation with…recursive re-joins its
// whole accumulated relation against every edge relation each iteration
// (Eq. 1), costing iterations × |R| × k.
package cost

import (
	"math"

	"xpath2sql/internal/core"
	"xpath2sql/internal/dtd"
	"xpath2sql/internal/ra"
	"xpath2sql/internal/rdb"
	"xpath2sql/internal/xpath"
)

// DBStats summarizes a database for estimation.
type DBStats struct {
	RelSizes map[string]int // stored relation -> tuple count
	Nodes    int            // total stored nodes
	AvgDepth float64        // average node depth (≈ closure multiplier)
	MaxDepth int            // longest root path (≈ fixpoint iterations)
}

// Gather computes statistics from a shredded database using the parent
// catalog.
func Gather(db *rdb.DB) DBStats {
	s := DBStats{RelSizes: map[string]int{}, Nodes: db.NumNodes()}
	for name, rel := range db.Rels {
		s.RelSizes[name] = rel.Len()
	}
	depth := map[int]int{0: 0}
	var depthOf func(id int) int
	depthOf = func(id int) int {
		if d, ok := depth[id]; ok {
			return d
		}
		parent := db.Parent(id)
		if !db.HasNode(id) || parent == id {
			depth[id] = 1
			return 1
		}
		d := depthOf(parent) + 1
		depth[id] = d
		return d
	}
	total := 0
	db.EachNode(func(id int) {
		d := depthOf(id)
		total += d
		if d > s.MaxDepth {
			s.MaxDepth = d
		}
	})
	if s.Nodes > 0 {
		s.AvgDepth = float64(total) / float64(s.Nodes)
	}
	return s
}

// Estimate is the model's output for a program.
type Estimate struct {
	// Cost is the estimated total work in tuple operations.
	Cost float64
	// ResultCard is the estimated cardinality of the result relation.
	ResultCard float64
}

// EstimateProgram estimates the cost of executing the program.
func EstimateProgram(p *ra.Program, s DBStats) Estimate {
	e := &estimator{stats: s, prog: p, card: map[string]float64{}}
	card := e.stmt(p.Result)
	return Estimate{Cost: e.cost, ResultCard: card}
}

type estimator struct {
	stats DBStats
	prog  *ra.Program
	card  map[string]float64 // memoized statement cardinalities
	cost  float64
}

func (e *estimator) stmt(name string) float64 {
	if c, ok := e.card[name]; ok {
		return c
	}
	e.card[name] = 0 // guard against cycles
	pl := e.prog.Lookup(name)
	if pl == nil {
		return 0
	}
	c := e.plan(pl)
	e.card[name] = c
	return c
}

// selectivity of an equality predicate on values.
const valSelectivity = 0.05

// fanout estimates tuples matched per probe in a composition join.
func (e *estimator) fanout(rightCard float64) float64 {
	if e.stats.Nodes == 0 {
		return 0
	}
	return rightCard / float64(e.stats.Nodes)
}

func (e *estimator) plan(pl ra.Plan) float64 {
	switch pl := pl.(type) {
	case ra.Base:
		return float64(e.stats.RelSizes[pl.Rel])
	case ra.Temp:
		return e.stmt(pl.Name)
	case ra.Ident:
		e.cost += float64(e.stats.Nodes)
		return float64(e.stats.Nodes)
	case ra.RootSeed:
		return 1
	case ra.IdentOf:
		c := e.plan(pl.Child)
		e.cost += c
		return c
	case ra.Compose:
		l := e.plan(pl.L)
		r := e.plan(pl.R)
		out := l * e.fanout(r)
		e.cost += l + out
		return out
	case ra.UnionAll:
		var out float64
		for _, k := range pl.Kids {
			out += e.plan(k)
		}
		e.cost += out
		return out
	case ra.SelectVal:
		c := e.plan(pl.Child)
		e.cost += c
		return c * valSelectivity
	case ra.SelectRoot:
		c := e.plan(pl.Child)
		e.cost += c
		// Roughly the root element's share.
		return math.Max(1, c/math.Max(1, float64(e.stats.Nodes)))
	case ra.Semijoin:
		l := e.plan(pl.L)
		r := e.plan(pl.R)
		e.cost += l + r
		return l * 0.5
	case ra.Antijoin:
		l := e.plan(pl.L)
		r := e.plan(pl.R)
		e.cost += l + r
		return l * 0.5
	case ra.Diff:
		l := e.plan(pl.L)
		r := e.plan(pl.R)
		e.cost += l + r
		return l * 0.5
	case ra.TypeFilter:
		c := e.plan(pl.Child)
		e.cost += c
		// A type filter keeps the fraction of nodes of that type.
		frac := 0.5
		if n := e.stats.RelSizes[pl.Rel]; e.stats.Nodes > 0 {
			frac = float64(n) / float64(e.stats.Nodes)
		}
		return c * frac
	case ra.Fix:
		seed := e.plan(pl.Seed)
		depth := math.Max(1, e.stats.AvgDepth)
		starts := seed
		if pl.Start != nil {
			starts = math.Min(seed, e.plan(pl.Start))
		}
		// Closure from the start frontier: about one path suffix per
		// (start, depth) step.
		out := starts * depth
		if pl.End != nil {
			e.plan(pl.End)
			out *= 0.5
		}
		// Semi-naive evaluation probes the seed once per produced tuple.
		e.cost += seed + out
		return out
	case ra.DescScan:
		from := float64(e.stats.RelSizes[pl.From])
		to := float64(e.stats.RelSizes[pl.To])
		srcs := from
		if pl.Start != nil {
			srcs = math.Min(srcs, e.plan(pl.Start))
		}
		frac := 1.0
		if from > 0 {
			frac = srcs / from
		}
		// Each To node lies under at most one From-typed ancestor per tree
		// level, so the full scan emits about |R_To| × depth tuples; the
		// interval kernel pays one binary search per source plus one
		// operation per emitted tuple — no fixpoint iteration. The fallback
		// alternative is not charged: engines without the encoding cost it
		// as the Fix it contains.
		out := to * math.Max(1, e.stats.AvgDepth) * frac
		if pl.End != nil {
			e.plan(pl.End)
			out *= 0.5
		}
		e.cost += srcs*math.Log2(math.Max(2, to)) + out
		return out
	case ra.RecUnion:
		var acc float64
		for _, t := range pl.Init {
			acc += e.plan(t.Plan)
		}
		var edges float64
		for _, ed := range pl.Edges {
			edges += 1
			e.plan(ed.Rel)
		}
		depth := math.Max(1, float64(e.stats.MaxDepth))
		out := acc * math.Max(1, e.stats.AvgDepth)
		// Eq. (1): every iteration re-joins the whole accumulated relation
		// with every edge relation — no delta optimization in the black
		// box.
		e.cost += depth * out * math.Max(1, edges)
		return out
	}
	return 0
}

// Advice is a per-strategy estimate.
type Advice struct {
	Strategy core.Strategy
	Estimate Estimate
}

// Choose translates the query under every strategy, estimates each program,
// and returns the advice sorted best-first. Translation failures (e.g. a
// query outside SQLGen-R's class) are skipped.
func Choose(q xpath.Path, d *dtd.DTD, s DBStats) ([]Advice, error) {
	var out []Advice
	for _, strat := range []core.Strategy{core.StrategyCycleEX, core.StrategyCycleE, core.StrategySQLGenR} {
		opts := core.DefaultOptions()
		opts.Strategy = strat
		res, err := core.Translate(q, d, opts)
		if err != nil {
			continue
		}
		out = append(out, Advice{Strategy: strat, Estimate: EstimateProgram(res.Program, s)})
	}
	// Insertion sort by cost (three entries).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Estimate.Cost < out[j-1].Estimate.Cost; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out, nil
}
