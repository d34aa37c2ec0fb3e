package main

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestLaidOutSpansAreWellFormed lays out random peels — children measured
// in other replays, so sometimes longer than their parent — and requires the
// tree the trace file gets: children inside their parent, siblings disjoint,
// no negative self time, self times of an operation summing to its root.
func TestLaidOutSpansAreWellFormed(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	rec := &recorder{}
	d := func(max int) time.Duration { return time.Duration(r.Intn(max)) * time.Microsecond }
	for op := 0; op < 200; op++ {
		tr := rec.op("root", d(1000))
		tr.child("root", "a", d(1200)) // may outlast root
		tr.child("a", "a1", d(400))
		tr.child("a", "a2", d(900)) // may outlast a
		tr.child("root", "b", d(300))
	}
	byOp := map[int]map[string]span{}
	for _, s := range rec.spans {
		if byOp[s.Op] == nil {
			byOp[s.Op] = map[string]span{}
		}
		byOp[s.Op][s.Name] = s
	}
	for op, spans := range byOp {
		for _, s := range spans {
			if s.End < s.Start {
				t.Fatalf("op %d %s: ends before it starts", op, s.Name)
			}
			if s.Raw < s.End-s.Start {
				t.Fatalf("op %d %s: laid out longer (%d) than measured (%d)", op, s.Name, s.End-s.Start, s.Raw)
			}
			if s.Parent == "" {
				continue
			}
			p := spans[s.Parent]
			if s.Start < p.Start || s.End > p.End {
				t.Fatalf("op %d: %s [%d,%d] leaves its parent %s [%d,%d]", op, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
			}
		}
		if a, b := spans["a"], spans["b"]; b.Start < a.End {
			t.Fatalf("op %d: siblings overlap: a ends %d, b starts %d", op, a.End, b.Start)
		}
	}
	// A span's self time — its duration minus what its direct children
	// cover — is never negative, and an operation's self times add up to its
	// outermost span.
	perOp := map[int]float64{}
	covered := map[[2]any]int64{}
	for _, s := range rec.spans {
		if s.Parent != "" {
			covered[[2]any{s.Op, s.Parent}] += s.End - s.Start
		}
	}
	for _, s := range rec.spans {
		self := s.End - s.Start - covered[[2]any{s.Op, s.Name}]
		if self < 0 {
			t.Fatalf("op %d: %s has negative self time %d", s.Op, s.Name, self)
		}
		perOp[s.Op] += float64(self)
	}
	for op, sum := range perOp {
		root := byOp[op]["root"]
		if sum != float64(root.End-root.Start) {
			t.Fatalf("op %d: self times sum to %v, root lasted %d", op, sum, root.End-root.Start)
		}
	}
}

func TestBreakdownSharesAndUnattributed(t *testing.T) {
	rec := &recorder{}
	us := time.Microsecond
	for i := 0; i < 10; i++ {
		tr := rec.op("rt", 1000*us)
		tr.child("rt", "handler", 800*us)
		tr.child("handler", "exec", 600*us)
		tr.child("exec", "op.x", 400*us)
		tr.child("exec", "op.y", 100*us)
	}
	b := breakdownOf(rec.spans, "rt")
	want := map[string]float64{"rt": 0.2, "handler": 0.2, "exec": 0.1, "op.x": 0.4, "op.y": 0.1}
	total := 0.0
	for name, w := range want {
		if got := b.share(name); math.Abs(got-w) > 1e-9 {
			t.Errorf("share(%s) = %v, want %v", name, got, w)
		}
		total += b.share(name)
	}
	if math.Abs(total-1) > 1e-9 || b.overrun != 0 {
		t.Errorf("shares sum to %v with overrun %v, want 1 and 0", total, b.overrun)
	}
	// Only exec's own time has no line: handler's is reported, the root's
	// always is, leaves are attributed.
	if got := b.unattributed("handler"); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("unattributed = %v, want 0.1", got)
	}
	if got := b.unattributed("handler", "exec"); got != 0 {
		t.Errorf("unattributed with exec reported = %v, want 0", got)
	}
}

// TestOverrunSurvivesNoiseCancelling: a child that is by chance longer than
// its parent on one operation and shorter on the next is not an overrun; one
// that is longer in total is.
func TestOverrunSurvivesNoiseCancelling(t *testing.T) {
	us := time.Microsecond
	rec := &recorder{}
	rec.op("rt", 100*us).child("rt", "inner", 120*us)
	rec.op("rt", 100*us).child("rt", "inner", 70*us)
	if b := breakdownOf(rec.spans, "rt"); b.overrun != 0 || b.share("rt") != 0.05 {
		t.Errorf("cancelling noise: overrun %v, root share %v; want 0 and 0.05", b.overrun, b.share("rt"))
	}
	rec = &recorder{}
	rec.op("rt", 100*us).child("rt", "inner", 150*us)
	b := breakdownOf(rec.spans, "rt")
	if b.overrun != float64(50*us) || b.unattributed() != 0.5 {
		t.Errorf("real overrun: %v ns, unattributed %v; want 50000 and 0.5", b.overrun, b.unattributed())
	}
}

func TestRootsAreKeptApart(t *testing.T) {
	us := time.Microsecond
	rec := &recorder{}
	rec.op("query", 100*us).child("query", "exec", 90*us)
	rec.op("update", 1000*us).child("update", "store", 500*us)
	if got := rec.roots(); len(got) != 2 || got[0] != "query" || got[1] != "update" {
		t.Fatalf("roots = %v", got)
	}
	if got := breakdownOf(rec.spans, "query").share("exec"); math.Abs(got-0.9) > 1e-9 {
		t.Errorf("query exec share = %v, want 0.9 (the update's spans must not count)", got)
	}
}
