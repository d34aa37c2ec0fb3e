package rdb

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// TestRelationDeleteCompact exercises the tombstone write path against a map
// model: random interleaved adds, deletes and value updates, then Compact,
// must leave exactly the model's live tuples with intact lookups.
func TestRelationDeleteCompact(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := NewRelation("R_x")
		model := map[[2]int]string{}
		for i := 0; i < 400; i++ {
			switch rng.Intn(5) {
			case 0, 1, 2: // add
				f, tt := rng.Intn(20), rng.Intn(60)
				v := fmt.Sprintf("v%d", rng.Intn(8))
				if r.Add(f, tt, v) {
					model[[2]int{f, tt}] = v
				}
			case 3: // delete
				f, tt := rng.Intn(20), rng.Intn(60)
				_, live := model[[2]int{f, tt}]
				if got := r.Delete(f, tt); got != live {
					t.Fatalf("seed %d op %d: Delete(%d,%d)=%v, model says %v", seed, i, f, tt, got, live)
				}
				delete(model, [2]int{f, tt})
			case 4: // value update
				f, tt := rng.Intn(20), rng.Intn(60)
				_, live := model[[2]int{f, tt}]
				v := fmt.Sprintf("u%d", i)
				if got := r.UpdateValue(f, tt, v); got != live {
					t.Fatalf("seed %d op %d: UpdateValue(%d,%d)=%v, model says %v", seed, i, f, tt, got, live)
				}
				if live {
					model[[2]int{f, tt}] = v
				}
			}
			if r.Len() != len(model) {
				t.Fatalf("seed %d op %d: Len=%d, model=%d", seed, i, r.Len(), len(model))
			}
		}
		r.Compact()
		if r.Tombstones() != 0 {
			t.Fatalf("seed %d: %d tombstones after Compact", seed, r.Tombstones())
		}
		if r.Len() != len(model) {
			t.Fatalf("seed %d: Len=%d after Compact, model=%d", seed, r.Len(), len(model))
		}
		for _, tp := range r.Tuples() {
			v, ok := model[[2]int{tp.F, tp.T}]
			if !ok || v != tp.V {
				t.Fatalf("seed %d: tuple %+v not in model (want %q)", seed, tp, v)
			}
		}
		// Indexes rebuilt after Compact must resolve live rows only.
		for k := range model {
			found := false
			for _, tup := range r.ChildrenOf(k[0]) {
				if tup.T == k[1] {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("seed %d: ChildrenOf(%d) misses T=%d", seed, k[0], k[1])
			}
		}
	}
}

// TestChildrenOfSkipsTombstones: ChildrenOf must hide deleted rows before
// Compact runs (the store reads subtrees through it mid-transaction).
func TestChildrenOfSkipsTombstones(t *testing.T) {
	r := NewRelation("R_x")
	r.Add(1, 10, "a")
	r.Add(1, 11, "b")
	r.Add(1, 12, "c")
	if !r.Delete(1, 11) {
		t.Fatal("Delete(1,11) = false")
	}
	kids := r.ChildrenOf(1)
	if len(kids) != 2 || kids[0].T != 10 || kids[1].T != 12 {
		t.Fatalf("ChildrenOf(1) = %+v", kids)
	}
	if r.Has(1, 11) {
		t.Fatal("Has(1,11) after delete")
	}
	// Re-adding the same pair must succeed (tombstone slot reuse).
	if !r.Add(1, 11, "b2") {
		t.Fatal("re-Add(1,11) = false")
	}
	if got := len(r.ChildrenOf(1)); got != 3 {
		t.Fatalf("ChildrenOf(1) after re-add: %d", got)
	}
}

// TestPairSetRemove drives the open-addressing set's tombstone machinery:
// removals, sentinel-key handling, slot reuse and growth with tombstones
// present.
func TestPairSetRemove(t *testing.T) {
	var s pairSet
	rng := rand.New(rand.NewSource(5))
	model := map[uint64]bool{}
	for i := 0; i < 5000; i++ {
		k := uint64(rng.Intn(700))
		if k == 699 {
			k = pairEmpty // exercise the sentinel side-flag
		}
		if rng.Intn(3) == 0 {
			want := model[k]
			if got := s.remove(k); got != want {
				t.Fatalf("op %d: remove(%#x)=%v, want %v", i, k, got, want)
			}
			delete(model, k)
		} else {
			want := !model[k]
			if got := s.insert(k); got != want {
				t.Fatalf("op %d: insert(%#x)=%v, want %v", i, k, got, want)
			}
			model[k] = true
		}
		if k != pairEmpty && s.has(k) != model[k] {
			t.Fatalf("op %d: has(%#x)=%v, want %v", i, k, s.has(k), model[k])
		}
	}
	realKeys := 0
	for k := range model {
		if !s.has(k) {
			t.Fatalf("final: has(%#x)=false", k)
		}
		if k != pairEmpty && k != pairDeleted {
			realKeys++
		}
	}
	if s.used != realKeys {
		t.Fatalf("used=%d, model=%d", s.used, realKeys)
	}
}

// TestCloneCarriesTombstones: a clone taken mid-delete must keep tombstone
// state, and compacting the clone must not disturb the original.
func TestCloneCarriesTombstones(t *testing.T) {
	r := NewRelation("R_x")
	for i := 0; i < 10; i++ {
		r.Add(1, i+10, fmt.Sprintf("v%d", i))
	}
	r.Delete(1, 13)
	c := r.Clone()
	if c.Len() != 9 || c.Tombstones() != 1 {
		t.Fatalf("clone: Len=%d Tombstones=%d", c.Len(), c.Tombstones())
	}
	c.Compact()
	if c.Len() != 9 || c.Tombstones() != 0 {
		t.Fatalf("clone after Compact: Len=%d Tombstones=%d", c.Len(), c.Tombstones())
	}
	if r.Tombstones() != 1 || r.Len() != 9 {
		t.Fatalf("original disturbed: Len=%d Tombstones=%d", r.Len(), r.Tombstones())
	}
	if c.Has(1, 13) || r.Has(1, 13) {
		t.Fatal("deleted pair still present")
	}
}

// TestStoredRelationMatchesModel is TestRelationDeleteCompact for a relation a
// DB stores, which holds no pair set: its T index answers Has, Delete and
// UpdateValue. DB.Insert repeats pairs, re-inserts deleted ones and gives a
// node several parents, and the relation is compacted and cloned between the
// writes — a clone carrying the indexes, tombstones and all — yet it always
// holds the model's tuples, never a pair set, and no index overflow past the
// bound a clone keeps.
func TestStoredRelationMatchesModel(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := NewDB()
		model := map[[2]int]string{}
		for i := 0; i < 600; i++ {
			f, tt := rng.Intn(6), rng.Intn(24)
			_, live := model[[2]int{f, tt}]
			r := db.Rel("R_x")
			switch rng.Intn(8) {
			case 0, 1, 2:
				v := fmt.Sprintf("v%d", rng.Intn(8))
				db.Insert("R_x", f, tt, v)
				if !live {
					model[[2]int{f, tt}] = v
				}
			case 3:
				if got := r.Delete(f, tt); got != live {
					t.Fatalf("seed %d op %d: Delete(%d,%d)=%v, model says %v", seed, i, f, tt, got, live)
				}
				delete(model, [2]int{f, tt})
			case 4:
				v := fmt.Sprintf("u%d", i)
				if got := r.UpdateValue(f, tt, v); got != live {
					t.Fatalf("seed %d op %d: UpdateValue(%d,%d)=%v, model says %v", seed, i, f, tt, got, live)
				}
				if live {
					model[[2]int{f, tt}] = v
				}
			case 5:
				if got := r.Has(f, tt); got != live {
					t.Fatalf("seed %d op %d: Has(%d,%d)=%v, model says %v", seed, i, f, tt, got, live)
				}
			case 6:
				r.Compact()
			case 7:
				r.ByF(f) // a clone carries both indexes
				db.Rels["R_x"] = r.Clone()
			}
			r = db.Rel("R_x")
			if r.Len() != len(model) || r.PairSetBytes() != 0 {
				t.Fatalf("seed %d op %d: Len=%d, model=%d; a pair set of %d bytes", seed, i, r.Len(), len(model), r.PairSetBytes())
			}
			for _, idx := range []*colIndex{r.idxF.Load(), r.idxT.Load()} {
				if idx != nil && len(r.rows)-idx.built > idx.built/foldShare+foldSlack+1 {
					t.Fatalf("seed %d op %d: %d overflow entries over a snapshot of %d", seed, i, len(r.rows)-idx.built, idx.built)
				}
			}
		}
		r := db.Rel("R_x")
		r.Compact()
		got := map[[2]int]string{}
		for _, tp := range r.Tuples() {
			got[[2]int{tp.F, tp.T}] = tp.V
		}
		if !maps.Equal(got, model) || len(got) != r.Len() {
			t.Fatalf("seed %d: the relation holds %v, the model %v", seed, got, model)
		}
		for k := range model {
			if !slices.ContainsFunc(r.ChildrenOf(k[0]), func(tp Tuple) bool { return tp.T == k[1] }) {
				t.Fatalf("seed %d: ChildrenOf(%d) misses T=%d", seed, k[0], k[1])
			}
		}
	}
}
