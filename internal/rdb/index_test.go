package rdb

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"xpath2sql/internal/ra"
)

// Tests of the column index across a relation's copy-on-write life: clones,
// appends, deletes and compactions carry the index along instead of rebuilding
// it, and what they carry must be what a rebuild would give.

// checkCarriedIndexes compares both indexes r carries with fresh builds over
// its rows: the same positions for every key — stored or not — in the same
// (insertion) order, and the same key list. Each carries its keys as a set
// exactly when they span little, a set that holds the snapshot's keys and no
// other; and a pooled temporary holding r's rows, asked for membership alone,
// answers as the rebuild does.
func checkCarriedIndexes(t *testing.T, step string, r *Relation, keys []int32) {
	t.Helper()
	for _, onF := range []bool{true, false} {
		idx := r.tIndex()
		if onF {
			idx = r.fIndex()
		}
		fresh := buildColIndex(r.rows, onF)
		hasSet := len(idx.set.words) > 0
		if n := len(idx.keys); hasSet != (n > 0 && spans(idx.keys[0], idx.keys[n-1], idx.built)) {
			t.Fatalf("%s: onF=%v: %d keys over %d rows, set %v", step, onF, n, idx.built, hasSet)
		}
		temp := &Relation{rows: r.rows, pooled: true}
		for _, k := range keys {
			snap, over := idx.lookup(k)
			want, _ := fresh.lookup(k)
			if got := mergedPositions(snap, over); !slices.Equal(got, want) {
				t.Fatalf("%s: onF=%v key %d: carried index finds rows %v, a rebuild %v", step, onF, k, got, want)
			}
			live := slices.ContainsFunc(want, func(p int32) bool { return !r.isDead(int(p)) })
			if idx.contains(k) != live {
				t.Fatalf("%s: onF=%v key %d: contains says %v, lookup finds live rows: %v", step, onF, k, idx.contains(k), live)
			}
			if hasSet && idx.set.has(k) != (len(snap) > 0) {
				t.Fatalf("%s: onF=%v key %d: the set says %v, the snapshot finds rows %v", step, onF, k, idx.set.has(k), snap)
			}
			if temp.members(onF).contains(k) != (len(want) > 0) {
				t.Fatalf("%s: onF=%v key %d: a membership-only key set disagrees with lookup", step, onF, k)
			}
		}
		checkOverflow(t, fmt.Sprintf("%s: onF=%v", step, onF), idx)
		if idx.built == len(r.rows) && !slices.Equal(idx.keys, fresh.keys) {
			t.Fatalf("%s: onF=%v: keys %v carried, %v rebuilt", step, onF, idx.keys, fresh.keys)
		}
	}
	rebuilt := NewRelation("rebuilt")
	for _, w := range r.Tuples() {
		rebuilt.addRow(row{f: int32(w.F), t: int32(w.T)})
	}
	if got, want := r.TIDs(), rebuilt.TIDs(); !slices.Equal(got, want) {
		t.Fatalf("%s: TIDs %v, %v rebuilt from the live rows", step, got, want)
	}
}

// checkOverflow checks the layout of an index overflow: a key per position,
// keys ascending, positions ascending within a key and above the snapshot's,
// and every key in [xlo, xhi].
func checkOverflow(t *testing.T, step string, idx *colIndex) {
	t.Helper()
	if len(idx.xkeys) != len(idx.xpos) {
		t.Fatalf("%s: %d overflow keys for %d positions", step, len(idx.xkeys), len(idx.xpos))
	}
	for i, k := range idx.xkeys {
		if k < idx.xlo || k > idx.xhi {
			t.Fatalf("%s: overflow key %d outside its range [%d, %d]", step, k, idx.xlo, idx.xhi)
		}
		if p := idx.xpos[i]; int(p) < idx.built {
			t.Fatalf("%s: overflow position %d inside the snapshot's %d rows", step, p, idx.built)
		}
		if i == 0 {
			continue
		}
		if prev := idx.xkeys[i-1]; prev > k || prev == k && idx.xpos[i-1] >= idx.xpos[i] {
			t.Fatalf("%s: overflow (%d, %d) before (%d, %d)", step, prev, idx.xpos[i-1], k, idx.xpos[i])
		}
	}
}

// TestCarriedIndexMatchesRebuild: random add / delete / Compact / Clone
// sequences over relations whose keys span little (a set), span wide (a
// directory), are negative, are overflowed (the snapshot is taken early and
// nearly everything is appended after it), or reach to one key past, or just
// to, the span bound of the first build — crossing it as rows come and go.
// Each walk runs on an operator's output, whose Clone copies its rows, and on
// a stored relation, whose Clone shares them: there the version a reader
// pinned must keep its rows and indexes while later versions append into the
// array they share, tombstone and compact, and its indexes' overflow arrays
// must not change while later versions insert into copies of their own. Key
// membership answers for live rows only. The relation that ends the walk
// never built an index of its own.
func TestCarriedIndexMatchesRebuild(t *testing.T) {
	const bound = spanPerKey * 50 // the span a set allows the first build's 50 rows
	reaching := func(far int32) func(r *rand.Rand) int32 {
		return func(r *rand.Rand) int32 {
			if r.Intn(20) == 0 {
				return far
			}
			return int32(r.Intn(40))
		}
	}
	shapes := []struct {
		name      string
		key       func(r *rand.Rand) int32
		probeFrom int // rows present when the indexes are first built
	}{
		{"dense", func(r *rand.Rand) int32 { return int32(r.Intn(40)) }, 50},
		{"sparse", func(r *rand.Rand) int32 { return int32(r.Intn(40)) * 100_003 }, 50},
		{"negative", func(r *rand.Rand) int32 { return int32(r.Intn(40)) - 20 }, 50},
		{"overflowed", func(r *rand.Rand) int32 { return int32(r.Intn(40)) }, 3},
		{"dense-then-sparse", reaching(1 << 28), 50},
		{"at-the-bound", reaching(bound), 50},
		{"past-the-bound", reaching(bound + 1), 50},
	}
	for _, sh := range shapes {
		for seed := int64(1); seed <= 10; seed++ {
			rng := rand.New(rand.NewSource(seed))
			r := NewRelation("R")
			r.stored = seed > 5
			var keys []int32
			for len(r.rows) < sh.probeFrom {
				r.addRow(row{f: sh.key(rng), t: sh.key(rng)})
			}
			for k := int32(-25); k < 45; k++ {
				keys = append(keys, k, k*100_003)
			}
			keys = append(keys, 1<<28, 1<<28+1, bound-1, bound, bound+1, bound+2)
			r.ByF(0)
			r.ByT(0)
			var pinned *Relation         // what a reader of an earlier epoch still holds
			var pinnedOver [2][2][]int32 // its F and T indexes' overflow keys and positions
			overOf := func(idx *colIndex) [2][]int32 { return [2][]int32{slices.Clone(idx.xkeys), slices.Clone(idx.xpos)} }
			for step := 0; step < 300; step++ {
				name := fmt.Sprintf("%s seed %d step %d", sh.name, seed, step)
				switch op := rng.Intn(10); {
				case op < 5:
					for i := 1 + rng.Intn(4); i > 0; i-- {
						r.addRow(row{f: sh.key(rng), t: sh.key(rng)})
					}
				case op < 7 && r.Len() > 0:
					for i := 1 + rng.Intn(3); i > 0 && r.Len() > 0; i-- {
						p := rng.Intn(len(r.rows))
						for r.isDead(p) {
							p = (p + 1) % len(r.rows)
						}
						if w := r.rows[p]; !r.Delete(int(w.f), int(w.t)) {
							t.Fatalf("%s: Delete(%d, %d) of a live row failed", name, w.f, w.t)
						}
					}
				case op < 8:
					r.compact()
				default:
					if r.Tombstones() == 0 {
						pinned = r
						pinnedOver = [2][2][]int32{overOf(r.idxF.Load()), overOf(r.idxT.Load())}
					}
					r = r.Clone()
				}
				checkCarriedIndexes(t, name, r, keys)
				if pinned != nil {
					checkCarriedIndexes(t, name+", the relation cloned from", pinned, keys)
					for i, idx := range []*colIndex{pinned.idxF.Load(), pinned.idxT.Load()} {
						if got := overOf(idx); !slices.Equal(got[0], pinnedOver[i][0]) || !slices.Equal(got[1], pinnedOver[i][1]) {
							t.Fatalf("%s: the pinned relation's overflow changed from %v to %v", name, pinnedOver[i], got)
						}
					}
				}
			}
			r = r.Clone()
			r.compact()
			checkCarriedIndexes(t, sh.name+" at the end", r, keys)
			if n := r.IndexBuilds(); n != 0 {
				t.Errorf("%s seed %d: the last clone built %d indexes, want both carried", sh.name, seed, n)
			}
		}
	}
}

// TestKeySetSpanBound: n keys spanning exactly spanPerKey·n get a set, and
// one more ID of span does not — for a column index and for a pooled
// temporary's membership-only key set, which past the bound builds the index
// instead — and either way contains and lookup answer what the rows do, for
// every key in and around the span, negative keys included.
func TestKeySetSpanBound(t *testing.T) {
	for _, n := range []int{2, 3, 50} {
		for _, lo := range []int32{-1000, -5, 0, 7} {
			for _, past := range []int32{0, 1} {
				name := fmt.Sprintf("%d keys from %d, %d past the bound", n, lo, past)
				hi := lo + spanPerKey*int32(n) + past
				r, count := NewRelation("R"), map[int32]int{}
				for i := 0; i < n; i++ {
					k := lo + int32(i)
					if i == n-1 {
						k = hi
					}
					r.addRow(row{f: k, t: k})
					count[k]++
				}
				temp := &Relation{rows: r.rows, pooled: true}
				idx, mem := r.fIndex(), temp.members(true)
				if len(idx.set.words) > 0 != (past == 0) {
					t.Fatalf("%s: the index has a set: %v", name, len(idx.set.words) > 0)
				}
				if len(mem.set.words) > 0 != (past == 0) || temp.IndexBuilds() != int(past) {
					t.Fatalf("%s: the membership probe built a set: %v, and %d indexes", name, len(mem.set.words) > 0, temp.IndexBuilds())
				}
				for k := lo - 2; k <= hi+2; k++ {
					if idx.contains(k) != (count[k] > 0) || mem.contains(k) != (count[k] > 0) || len(idx.snap(k)) != count[k] {
						t.Fatalf("%s: key %d: contains %v and %v, %d rows found, want %d", name, k, idx.contains(k), mem.contains(k), len(idx.snap(k)), count[k])
					}
				}
			}
		}
	}
}

// TestRangeOfMatchesSearch: the galloping rangeOf finds, from any position
// not past the answer, the range two binary searches over the whole index
// find — for intervals before, around, inside and after the begins.
func TestRangeOfMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 2000; trial++ {
		d, n := &descIndex{}, rng.Intn(200)
		for b := int64(0); len(d.begins) < n; b += 1 + int64(rng.Intn(4)) {
			d.begins = append(d.begins, b)
		}
		begin := int64(rng.Intn(500)) - 50
		end := begin + 1 + int64(rng.Intn(300))
		lo := sort.Search(len(d.begins), func(i int) bool { return d.begins[i] > begin })
		hi := sort.Search(len(d.begins), func(i int) bool { return d.begins[i] >= end })
		from := rng.Intn(lo + 1)
		if gotLo, gotHi := d.rangeOf(from, begin, end); gotLo != lo || gotHi != hi {
			t.Fatalf("begins %v, (%d, %d) from %d: [%d, %d), want [%d, %d)", d.begins, begin, end, from, gotLo, gotHi, lo, hi)
		}
	}
}

// TestOverflowStaysBounded: a relation that is only ever cloned and appended
// to — a store under inserts — folds its index overflow into the snapshot
// before it outgrows a fixed share of it, so what a clone copies does not grow
// with the number of inserts so far. Nothing is ever rebuilt, and the relation
// a reader holds is not the one that changes.
func TestOverflowStaysBounded(t *testing.T) {
	const perUpdate = 9
	r := NewRelation("R")
	for i := 0; i < 500; i++ {
		r.addRow(row{f: int32(i / 4), t: int32(i + 1)})
	}
	r.ByF(0)
	r.ByT(0)
	folds := 0
	for update := 0; update < 2000; update++ {
		pinned, pinnedF, pinnedOver := r, r.idxF.Load(), len(r.idxF.Load().xkeys)
		r = r.Clone()
		if r.idxF.Load().built > pinnedF.built {
			folds++
		}
		for i := 0; i < perUpdate; i++ {
			id := int32(len(r.rows) + 1)
			r.addRow(row{f: id / 4, t: id})
		}
		if pinned.idxF.Load() != pinnedF || len(pinnedF.xkeys) != pinnedOver {
			t.Fatalf("update %d: the clone changed the index of the relation it was cloned from", update)
		}
		for _, idx := range []*colIndex{r.idxF.Load(), r.idxT.Load()} {
			over, bound := len(r.rows)-idx.built, idx.built/foldShare+foldSlack+perUpdate
			if over > bound {
				t.Fatalf("update %d: %d overflow entries over a snapshot of %d, want at most %d", update, over, idx.built, bound)
			}
		}
	}
	if r.IndexBuilds() != 0 || folds < 10 {
		t.Fatalf("%d index builds and %d folds over 2000 appends; want none, and a fold now and then", r.IndexBuilds(), folds)
	}
	checkCarriedIndexes(t, "after 2000 appends", r, []int32{0, 1, 100, 4000, 18000, 1 << 20})
}

// TestViewOverflowStaysBounded is TestOverflowStaysBounded for a view's
// materializations, which are never cloned: every insert a delta rule admits
// appends to them. Across 4 000 insert-only ApplyInserts into a 4-ary tree,
// under a start-constrained closure (whose T index fixGrow probes) and a
// compose over it, each built index's overflow stays within the bound a clone
// keeps — folded now and then, never rebuilt — and the answer stays a fresh
// build's.
func TestViewOverflowStaysBounded(t *testing.T) {
	db := NewDB()
	db.Insert("E", 0, 1, "")
	p := &ra.Program{Stmts: []ra.Stmt{
		{Name: "closure", Plan: ra.Fix{Seed: ra.Base{Rel: "E"}, Start: ra.RootSeed{}}},
		{Name: "result", Plan: ra.Compose{L: ra.Temp{Name: "closure"}, R: ra.Base{Rel: "E"}}},
	}, Result: "result"}
	vs, err := BuildViewState(db, p)
	if err != nil {
		t.Fatal(err)
	}
	builds, folds := -1, 0
	for id := 2; id <= 4001; id++ {
		next := cowDB(db)
		parent := (id-2)/4 + 1
		next.Insert("E", parent, id, "")
		before := map[*Relation]int{}
		for _, r := range vs.materializations() {
			if idx := r.idxT.Load(); idx != nil {
				before[r] = idx.built
			}
		}
		if _, err := vs.ApplyInsert(next, BaseDelta{Rows: map[string][]DeltaEdge{"E": {{T: id}}}, NewIDs: []int{id}}); err != nil {
			t.Fatal(err)
		}
		db = next
		for path, r := range vs.materializations() {
			for _, idx := range []*colIndex{r.idxF.Load(), r.idxT.Load()} {
				if idx == nil {
					continue
				}
				if over, bound := len(r.rows)-idx.built, idx.built/foldShare+foldSlack+1; over > bound {
					t.Fatalf("insert %d: %s holds %d overflow entries over a snapshot of %d, want at most %d", id, path, over, idx.built, bound)
				}
			}
			if idx := r.idxT.Load(); idx != nil && idx.built > before[r] && before[r] > 0 {
				folds++
			}
		}
		if builds < 0 {
			builds = vs.IndexBuilds() // the first insert builds what the rules probe
		} else if vs.IndexBuilds() != builds {
			t.Fatalf("insert %d: %d index builds, %d after the first insert: an index was rebuilt", id, vs.IndexBuilds(), builds)
		}
	}
	if folds < 10 {
		t.Fatalf("%d folds over 4 000 inserts, want one now and then", folds)
	}
	if want := fullAnswer(t, db, p); !slices.Equal(vs.AnswerIDs(), want) {
		t.Fatalf("maintained answer (%d ids) differs from a fresh run (%d)", len(vs.AnswerIDs()), len(want))
	}
}

// TestOverflowProbeMatchesRebuild: a relation shaped by store updates — a
// snapshot of old nodes, then appended rows of new nodes, above every old ID,
// under old and new parents — answers lookup and contains as a fresh build
// does for keys inside the snapshot, inside the overflow, between the two and
// outside both: after appends, after a clone that copies the overflow
// (cloneFor), after one that folds it into a snapshot (folded), and after
// deletes compacted away (compact), of old rows and new.
func TestOverflowProbeMatchesRebuild(t *testing.T) {
	var keys []int32
	for _, span := range [][2]int32{{-3, 130}, {990, 1400}, {5000, 5003}, {1 << 28, 1<<28 + 2}} {
		for k := span[0]; k <= span[1]; k++ {
			keys = append(keys, k)
		}
	}
	r := NewRelation("R")
	for id := int32(1); id <= 100; id++ {
		r.addRow(row{f: id / 4, t: id})
	}
	r.ByF(0)
	r.ByT(0)
	next := int32(1000)
	insert := func(parent int32, n int) {
		for i := 0; i < n; i++ {
			r.addRow(row{f: parent, t: next})
			parent, next = next, next+2 // gaps: keys between overflow keys
		}
	}
	drop := func(ts ...int32) {
		for _, t := range ts {
			for _, w := range r.rows {
				if w.t == t {
					r.Delete(int(w.f), int(w.t))
				}
			}
		}
		r.compact()
	}
	insert(7, 5)
	checkCarriedIndexes(t, "appended under an old parent", r, keys)
	r = r.Clone()
	insert(1002, 4)
	checkCarriedIndexes(t, "cloned, then appended under a new parent", r, keys)
	if r.idxT.Load().built != 100 {
		t.Fatalf("the clone snapshot covers %d rows, want the overflow copied, not folded", r.idxT.Load().built)
	}
	drop(3, 1004)
	checkCarriedIndexes(t, "an old and a new row compacted away", r, keys)
	insert(50, 100)
	r = r.Clone()
	if r.idxT.Load().built != len(r.rows) {
		t.Fatalf("the clone snapshot covers %d of %d rows, want the overflow folded", r.idxT.Load().built, len(r.rows))
	}
	checkCarriedIndexes(t, "folded", r, keys)
	insert(1010, 3)
	drop(1010, next-2)
	checkCarriedIndexes(t, "appended after the fold, then compacted", r, keys)
	drop(next-4, next-6)
	if n := len(r.idxT.Load().xkeys); n != 0 {
		t.Fatalf("%d entries left in the T overflow, want none", n)
	}
	insert(2, 2)
	checkCarriedIndexes(t, "the overflow emptied and refilled", r, keys)
}

// TestSharedChunksDoNotPinTheirEpoch: the newest database shares node-table
// chunks with every database it descends from, and must keep none of them
// reachable — or a store would hold every chunk it ever copied.
func TestSharedChunksDoNotPinTheirEpoch(t *testing.T) {
	db := NewDB()
	for id := 1; id <= 3*nodeChunkLen; id++ {
		db.Insert("R", id/2, id, "")
	}
	freed := make(chan struct{})
	mid := db.Derive()
	mid.Rels["R"] = mid.Rels["R"].Clone()
	mid.UpdateValue("R", 0, 1, "first chunk, copied here and shared from here on")
	runtime.SetFinalizer(mid.nodes.Load().tab, func(*nodeTable) { close(freed) })
	last := mid.Derive()
	last.Rels["R"] = last.Rels["R"].Clone()
	last.UpdateValue("R", nodeChunkLen, 2*nodeChunkLen, "another chunk")
	mid = nil
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-freed:
			if last.Val(1) == "" || last.NumNodes() != 3*nodeChunkLen {
				t.Fatal("the surviving database lost rows")
			}
			return
		case <-time.After(50 * time.Millisecond):
		}
	}
	t.Fatal("a chunk shared with the newest database keeps the table that copied it alive")
}
