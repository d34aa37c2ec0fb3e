package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one layer-boundary interval of one operation. Spans of an
// operation share op_id; parent names the span that caused this one.
type span struct {
	Op     int    `json:"op_id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Raw is the duration as measured, before the layout cut it to fit its
	// parent; Raw > End-Start marks a span that was cut.
	Raw int64 `json:"raw_ns"`
}

// recorder keeps the spans of a traced run in memory until the run ends.
//
// The benchmark times layers from outside, by peeling: the same operation is
// replayed at successively deeper public seams, each replay timed on its own.
// Durations are therefore measured; start offsets are synthetic — every
// operation is laid out on the recorder's own clock, children packed inside
// their parent in call order and cut off at the parent's end, so a reader
// gets a well-formed tree whose self times sum to the outermost span.
type recorder struct {
	spans []span
	clock int64
	ops   int
}

// opTree is one operation being laid out.
type opTree struct {
	rec    *recorder
	op     int
	index  map[string]int   // span name → position in rec.spans
	cursor map[string]int64 // span name → where its next child starts
}

// op opens a new operation whose outermost span lasted dur.
func (r *recorder) op(root string, dur time.Duration) *opTree {
	t := &opTree{rec: r, op: r.ops, index: map[string]int{}, cursor: map[string]int64{}}
	r.ops++
	t.put(span{Op: t.op, Name: root, Start: r.clock, End: r.clock + dur.Nanoseconds(), Raw: dur.Nanoseconds()})
	r.clock += dur.Nanoseconds()
	return t
}

func (t *opTree) put(s span) {
	t.index[s.Name] = len(t.rec.spans)
	t.cursor[s.Name] = s.Start
	t.rec.spans = append(t.rec.spans, s)
}

// child records a span of the given measured duration under parent, after
// the parent's earlier children. A child that would overrun its parent —
// the two were timed in different replays — is cut at the parent's end.
// An unknown parent is a harness bug, not an input fault.
func (t *opTree) child(parent, name string, dur time.Duration) {
	pi, ok := t.index[parent]
	if !ok {
		panic("spans: child " + name + " of unrecorded parent " + parent)
	}
	if dur < 0 {
		dur = 0
	}
	p := t.rec.spans[pi]
	start := t.cursor[parent]
	end := start + dur.Nanoseconds()
	if end > p.End {
		end = p.End
	}
	t.cursor[parent] = end
	t.put(span{Op: t.op, Name: name, Parent: parent, Start: start, End: end, Raw: dur.Nanoseconds()})
}

// breakdown is where the time of the operations under one root went. It is
// taken over sums of measured durations, not per operation and not over
// medians: each seam is timed in its own replay, so on one operation a child
// can outlast its parent by chance, and cutting operation by operation would
// count that noise as time. Summed first, chance cancels; what remains when
// a name's children together outlast it is overrun, a real inconsistency.
type breakdown struct {
	root    string
	ops     int
	whole   float64            // summed outermost durations, ns
	self    map[string]float64 // summed self time per span name, never negative
	overrun float64            // summed excess of children over their parents
	parents map[string]bool    // names that have children
}

func breakdownOf(spans []span, root string) breakdown {
	b := breakdown{root: root, self: map[string]float64{}, parents: map[string]bool{}}
	rooted := map[int]bool{}
	for _, s := range spans {
		if s.Name == root && s.Parent == "" {
			rooted[s.Op] = true
			b.ops++
			b.whole += float64(s.Raw)
		}
	}
	total := map[string]float64{}
	covered := map[string]float64{}
	for _, s := range spans {
		if !rooted[s.Op] {
			continue
		}
		total[s.Name] += float64(s.Raw)
		if s.Parent != "" {
			covered[s.Parent] += float64(s.Raw)
			b.parents[s.Parent] = true
		}
	}
	for name, t := range total {
		if self := t - covered[name]; self >= 0 {
			b.self[name] = self
		} else {
			b.self[name] = 0
			b.overrun -= self
		}
	}
	return b
}

// share is one span name's self time over the whole.
func (b breakdown) share(name string) float64 {
	if b.whole == 0 {
		return 0
	}
	return b.self[name] / b.whole
}

// unattributed is the part of the outermost spans that no reported line
// explains: the self time of inner spans that have children but no self-time
// metric of their own (time inside the executor between operators, inside
// the translator between its passes), plus the overrun. reported names the
// spans whose self time is a metric; leaves are attributed by definition.
func (b breakdown) unattributed(reported ...string) float64 {
	if b.whole == 0 {
		return 0
	}
	// The outermost span's own time is what the operation costs around
	// everything that was peeled (over HTTP, the transport): always a line.
	ok := map[string]bool{b.root: true}
	for _, n := range reported {
		ok[n] = true
	}
	loose := b.overrun
	for name, self := range b.self {
		if b.parents[name] && !ok[name] {
			loose += self
		}
	}
	return loose / b.whole
}

// roots lists the distinct outermost span names in first-seen order.
func (r *recorder) roots() []string {
	var roots []string
	seen := map[string]bool{}
	for _, s := range r.spans {
		if s.Parent == "" && !seen[s.Name] {
			seen[s.Name] = true
			roots = append(roots, s.Name)
		}
	}
	return roots
}

// unattributedShare is the worst unattributed share over the kinds of
// operation the run traced.
func (r *recorder) unattributedShare(reported ...string) float64 {
	worst := 0.0
	for _, root := range r.roots() {
		if u := breakdownOf(r.spans, root).unattributed(reported...); u > worst {
			worst = u
		}
	}
	return worst
}

// write stores the spans as one JSON document.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Note  string `json:"note"`
		Spans []span `json:"spans"`
	}{
		Note:  "raw_ns is measured, one replay per seam; start_ns/end_ns are laid out by the harness (see benchmark/README.md)",
		Spans: r.spans,
	}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
