package rdb

import (
	"testing"

	"xpath2sql/internal/ra"
)

// TestFixTrackPaths verifies the §5.2 P attribute: each closure tuple
// carries one witnessing path.
func TestFixTrackPaths(t *testing.T) {
	db := chainDB(5) // 1→2→3→4→5
	rel, _ := run(t, db, prog(ra.Fix{Seed: ra.Base{Rel: "E"}, TrackPaths: true}))
	if got := rel.PathOf(1, 4); len(got) != 3 || got[0] != 2 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("path 1→4 = %v", got)
	}
	if got := rel.PathOf(1, 2); len(got) != 1 || got[0] != 2 {
		t.Fatalf("path 1→2 = %v", got)
	}
	// Paths must be recorded for every tuple.
	for _, tp := range rel.Tuples() {
		p := rel.PathOf(tp.F, tp.T)
		if len(p) == 0 {
			t.Fatalf("missing path for %+v", tp)
		}
		if p[len(p)-1] != tp.T {
			t.Fatalf("path %v does not end at %d", p, tp.T)
		}
		// The path is a valid edge walk from F.
		prev := tp.F
		for _, n := range p {
			if !db.Rel("E").Has(prev, n) {
				t.Fatalf("path %v uses a non-edge %d→%d", p, prev, n)
			}
			prev = n
		}
	}
}

func TestFixTrackPathsForward(t *testing.T) {
	db := chainDB(5)
	db.Insert("S", 0, 1, "") // start set = {1}
	rel, _ := run(t, db, prog(ra.Fix{Seed: ra.Base{Rel: "E"}, Start: ra.Base{Rel: "S"}, TrackPaths: true}))
	if got := rel.PathOf(1, 5); len(got) != 4 {
		t.Fatalf("path 1→5 = %v", got)
	}
}

func TestFixTrackPathsBackward(t *testing.T) {
	db := chainDB(5)
	db.Insert("S", 5, 9, "") // end set (F values) = {5}
	rel, _ := run(t, db, prog(ra.Fix{Seed: ra.Base{Rel: "E"}, End: ra.Base{Rel: "S"}, TrackPaths: true}))
	if got := rel.PathOf(2, 5); len(got) != 3 || got[0] != 3 || got[2] != 5 {
		t.Fatalf("path 2→5 = %v", got)
	}
}

func TestDBLabelsAndParents(t *testing.T) {
	db := NewDB()
	db.InsertLabeled("R_a", "a", 0, 1, "")
	db.InsertLabeled("R_b", "b", 1, 2, "x")
	if db.Labels[2] != "b" || db.Labels[1] != "a" {
		t.Fatalf("labels = %v", db.Labels)
	}
	if db.Parent(2) != 1 || db.Parent(1) != 0 || !db.HasNode(1) {
		t.Fatalf("parents = %d, %d", db.Parent(2), db.Parent(1))
	}
}
