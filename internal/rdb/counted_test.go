package rdb_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"xpath2sql/internal/core"
	"xpath2sql/internal/obs"
	"xpath2sql/internal/ra"
	"xpath2sql/internal/rdb"
	"xpath2sql/internal/shred"
	"xpath2sql/internal/store"
	"xpath2sql/internal/workload"
	"xpath2sql/internal/xmlgen"
	"xpath2sql/internal/xmltree"
	"xpath2sql/internal/xpath"
)

// readMix is the read-desc workload's query mix (benchmark/gen.go), each
// query with the pair-set work its plan cannot avoid: none where every join
// has a keyed side, every union's operands are of different types or all hold
// one F — the union of a // step's descendants with the context itself, which
// dedups on a set of Ts — and every qualifier is probed for its witnesses
// alone; otherwise less than a hash of every tuple.
var readMix = []struct {
	query string
	needs string // "none" or "some"
}{
	{"dept//project", "none"},
	{"dept//cno", "none"},
	{"dept//course//title", "none"},
	{"dept//student[qualified//course]", "none"},
	{"dept/course[cno and not(.//project)]", "none"},
	{"dept/course/prereq//course/prereq/course", "none"},
	{"dept//cno[text()='%s']", "none"}, // a cno value of the smallest document
	{"dept//sno | dept//pno", "none"},
}

// deptDB shreds a generated dept document of about elems elements, shaped
// as the benchmark's (X_L 8, X_R 4).
func deptDB(t *testing.T, elems int) *rdb.DB {
	t.Helper()
	d := workload.Dept()
	var doc strings.Builder
	if _, err := xmlgen.StreamGenerate(&doc, d, xmlgen.StreamOptions{XL: 8, XR: 4, Seed: 1, TargetBytes: int64(elems) * 20}); err != nil {
		t.Fatal(err)
	}
	parsed, err := xmltree.Parse(doc.String())
	if err != nil {
		t.Fatal(err)
	}
	db, err := shred.Shred(parsed, d)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// readMixPrograms translates the read mix, its text() query asking for a cno
// value of db.
func readMixPrograms(t *testing.T, db *rdb.DB) (queries []string, progs []*ra.Program) {
	t.Helper()
	cno := db.Rel("R_cno").Tuples()[0].V
	for _, m := range readMix {
		q := m.query
		if strings.Contains(q, "%s") {
			q = fmt.Sprintf(q, cno)
		}
		res, err := core.Translate(xpath.MustParse(q), workload.Dept(), core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		queries, progs = append(queries, q), append(progs, res.Program)
	}
	return queries, progs
}

// hashing is what one pooled run of p on db produces and what its pair sets
// cost: inserts, and the slots clearing them writes; and the temporaries it
// asked only for membership (membershipOnly), with the index builds they made.
func hashing(t *testing.T, db *rdb.DB, p *ra.Program) (tuples, inserts, cleared, members, memberBuilds int) {
	t.Helper()
	st := rdb.AcquireState(db)
	if _, err := st.Exec().Run(p); err != nil {
		t.Fatal(err)
	}
	tuples = st.Exec().Stats.TuplesOut
	only := membershipOnly(p)
	names, builds := st.MemberTemps()
	for i, name := range names {
		if name == "" || only[name] {
			members, memberBuilds = members+1, memberBuilds+builds[i]
		}
	}
	inserts, cleared = st.ReleaseCounted()
	return tuples, inserts, cleared, members, memberBuilds
}

// membershipOnly names the statements p reads only as membership tests: a
// DescScan's Start or End, the one-F context of a staircase (the L of a
// compose with a DescScan), the right operand of a semijoin or an antijoin.
// A statement that is also joined, or read any other way, is not one.
func membershipOnly(p *ra.Program) map[string]bool {
	joined, asked := map[string]bool{}, map[string]bool{}
	var walk func(pl ra.Plan, member bool)
	walk = func(pl ra.Plan, member bool) {
		switch pl := pl.(type) {
		case ra.Temp:
			asked[pl.Name], joined[pl.Name] = asked[pl.Name] || member, joined[pl.Name] || !member
			return
		case ra.DescScan: // the kernel answers the mix: Alt is not read
			for _, c := range []ra.Plan{pl.Start, pl.End} {
				if c != nil {
					walk(c, true)
				}
			}
			return
		case ra.Compose:
			if _, stair := pl.R.(ra.DescScan); stair {
				walk(pl.L, true)
				walk(pl.R, false)
				return
			}
		case ra.Semijoin:
			walk(pl.L, false)
			walk(pl.R, true)
			return
		case ra.Antijoin:
			walk(pl.L, false)
			walk(pl.R, true)
			return
		}
		for _, k := range ra.Inputs(pl) {
			walk(k, false)
		}
	}
	for _, s := range p.Stmts {
		walk(s.Plan, false)
	}
	for name, j := range joined {
		if j {
			delete(asked, name)
		}
	}
	return asked
}

// updated applies n updates to db through a store (walkUpdates) and returns
// the last epoch's database and the same document loaded afresh.
func updated(t *testing.T, db *rdb.DB, n int) (after, fresh *rdb.DB) {
	t.Helper()
	after = walkUpdates(t, db, n, nil)
	var img bytes.Buffer
	if err := after.Save(&img); err != nil {
		t.Fatal(err)
	}
	fresh, err := rdb.Load(&img)
	if err != nil {
		t.Fatal(err)
	}
	return after, fresh
}

// walkUpdates applies n updates to db through a store, drawn as write-mixed
// draws them: in the ratio 2:1:1, a 9-element course inserted under the root,
// a delete of a course inserted earlier, a text update of a cno leaf of db.
// Each new epoch is handed to each, if set, beside its parent and whether the
// update relabelled. It returns the last epoch's database.
func walkUpdates(t *testing.T, db *rdb.DB, n int, each func(prev, next *rdb.DB, relabelled bool)) *rdb.DB {
	t.Helper()
	st, err := store.Open(store.Config{DTD: workload.Dept(), Seed: db, Fsync: store.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var leaves, mine []int
	for _, w := range db.Rel("R_cno").Tuples() {
		leaves = append(leaves, w.T)
	}
	r := rand.New(rand.NewSource(int64(db.NumNodes())))
	for i := 0; i < n; i++ {
		prev, relabels := st.View().DB, st.Stats().Relabels
		tag := fmt.Sprintf("u%d", i)
		switch k := r.Intn(4); {
		case k == 2 && len(mine) > 0:
			j := r.Intn(len(mine))
			_, err = st.DeleteSubtree(mine[j])
			mine[j], mine = mine[len(mine)-1], mine[:len(mine)-1]
		case k == 3:
			_, err = st.UpdateText(leaves[r.Intn(len(leaves))], tag)
		default:
			var ur store.UpdateResult
			ur, err = st.InsertSubtree(1, "<course><cno>"+tag+"</cno><title>t-"+tag+"</title><prereq></prereq><takenBy></takenBy>"+
				"<project><pno>p-"+tag+"</pno><ptitle>pt</ptitle><required></required></project></course>")
			mine = append(mine, ur.NodeID)
		}
		if err != nil {
			t.Fatal(err)
		}
		if each != nil {
			each(prev, st.View().DB, st.Stats().Relabels != relabels)
		}
	}
	return st.View().DB
}

// TestUpdatesLeaveIndexesWarm is the counted test of the writer's index
// patches: along a 560-update write-mixed walk over dept databases of 1×, 4×
// and 16× a base, the read mix on each new epoch builds no descendant index of
// a relation its parent epoch had indexed — the update shared or patched every
// one — but after a relabel, which carries nothing.
func TestUpdatesLeaveIndexesWarm(t *testing.T) {
	const base = 1000
	var built []string
	defer rdb.OnDescIndexBuild(func(rel string) { built = append(built, rel) })()
	for _, scale := range []int{1, 4, 16} {
		db := deptDB(t, scale*base)
		_, progs := readMixPrograms(t, db)
		readAll := func(db *rdb.DB) {
			for _, p := range progs {
				st := rdb.AcquireState(db)
				if _, err := st.Exec().Run(p); err != nil {
					t.Fatal(err)
				}
				st.Release()
			}
		}
		readAll(db)
		epochs, relabels, had := 0, 0, 0
		walkUpdates(t, db, 560, func(prev, next *rdb.DB, relabelled bool) {
			epochs++
			indexed := rdb.DescIndexed(prev)
			built = built[:0]
			readAll(next)
			if relabelled {
				relabels++
				return
			}
			had += len(indexed)
			for _, name := range built {
				if slices.Contains(indexed, name) {
					t.Errorf("%d×, epoch %d: the read mix built an index of %s, which the parent epoch had", scale, epochs, name)
				}
			}
		})
		t.Logf("%2d×: %d epochs, %d relabelled; the others' parents held %d indexes", scale, epochs, relabels, had)
		if relabels > 2 || had == 0 {
			t.Errorf("%d×: %d of %d epochs relabelled, their parents held %d indexes", scale, relabels, epochs, had)
		}
	}
}

// TestReadMixHashesOnlyWhereDuplicatesArise counts the pair-set work of the
// read mix on a pooled state over dept databases of 16×, 4× and 1× a base
// size — largest first, so a state the pool hands back retains the capacity
// the larger run grew. A temporary pays for dedup only where a duplicate can
// arise: the plans whose every join has a keyed side, or whose union's
// operands are of different types, hash nothing and clear nothing at any size;
// a union hashes at most its operands' rows; no plan hashes every tuple it
// produces; and clearing a set writes slots in proportion to the keys it held
// (at most 8 a key), not to its capacity. What may hash is decided from the
// plan, so a read after 100 updates hashes exactly what the same read does on
// a fresh load of the document the updates left. No query of the mix hashes
// (at most one may: the roadmap's bar), and a temporary the mix asks only
// "is k in this column" builds a key set, never an index. At 16×, the whole
// mix produces at most 30 000 tuples and inserts at most 8 000 pairs, before
// the updates and after (43 273 and 12 926 when every answer was derived once
// per enclosing source and every qualifier was built whole; 27 541 and 5 471
// while the // step's desc ∪ self union hashed its pairs).
func TestReadMixHashesOnlyWhereDuplicatesArise(t *testing.T) {
	const base = 1000
	scales := []int{16, 4, 1}
	dbs := make([]*rdb.DB, len(scales))
	for i, scale := range scales {
		dbs[i] = deptDB(t, scale*base)
	}
	queries, progs := readMixPrograms(t, dbs[len(dbs)-1])
	for si, scale := range scales {
		db := dbs[si]
		after, fresh := updated(t, db, 100)
		var total, totalAfter [2]int // tuples, inserts
		hashers, members := 0, 0
		for i, m := range readMix {
			q := queries[i]
			tuples, inserts, cleared, mem, memBuilds := hashing(t, db, progs[i])
			afterTuples, afterInserts, _, afterMem, afterMemBuilds := hashing(t, after, progs[i])
			total[0], total[1] = total[0]+tuples, total[1]+inserts
			totalAfter[0], totalAfter[1] = totalAfter[0]+afterTuples, totalAfter[1]+afterInserts
			_, freshInserts, _, _, _ := hashing(t, fresh, progs[i])
			t.Logf("%2d× %-42s tuples %6d  inserts %6d  cleared %6d  after 100 updates %6d (fresh load %6d)  membership-only temporaries %d",
				scale, q, tuples, inserts, cleared, afterInserts, freshInserts, mem)
			if inserts > 0 || afterInserts > 0 {
				hashers++
			}
			members += mem + afterMem
			if memBuilds != 0 || afterMemBuilds != 0 {
				t.Errorf("%d× %s: the temporaries asked only for membership built %d indexes, %d after 100 updates, want 0 and 0", scale, q, memBuilds, afterMemBuilds)
			}
			if m.needs == "none" && (inserts != 0 || cleared != 0 || afterInserts != 0) {
				t.Errorf("%d× %s: %d pair-set inserts and %d slots cleared, %d inserts after 100 updates, want 0, 0 and 0", scale, q, inserts, cleared, afterInserts)
			}
			if afterInserts != freshInserts {
				t.Errorf("%d× %s: %d pair-set inserts after 100 updates, %d on a fresh load of the same document", scale, q, afterInserts, freshInserts)
			}
			if inserts > 0 && inserts >= tuples {
				t.Errorf("%d× %s: %d pair-set inserts for %d tuples produced: every tuple was hashed", scale, q, inserts, tuples)
			}
			if cleared > 8*inserts {
				t.Errorf("%d× %s: clearing wrote %d slots for %d inserts", scale, q, cleared, inserts)
			}
		}
		t.Logf("%2d× the mix: tuples %d, inserts %d; after 100 updates %d, %d", scale, total[0], total[1], totalAfter[0], totalAfter[1])
		if hashers > 1 {
			t.Errorf("%d×: %d of the %d queries insert into a pair set, want at most 1", scale, hashers, len(readMix))
		}
		if members == 0 {
			t.Errorf("%d×: no temporary of the mix was read as a key set", scale)
		}
		if scale == 16 {
			for _, tot := range [][2]int{total, totalAfter} {
				if tot[0] > 30000 || tot[1] > 8000 {
					t.Errorf("16×: the mix produced %d tuples and inserted %d pairs, want at most 30 000 and 8 000", tot[0], tot[1])
				}
			}
		}
	}
}

// TestReadMixTraceAddsUp runs the read mix traced: the per-statement events
// Explain prints add up to the run's Stats — tuples= to TuplesOut, and every
// other counter — and Explain names the staircase scans and the existence
// probes where they ran.
func TestReadMixTraceAddsUp(t *testing.T) {
	db := deptDB(t, 1000)
	cno := db.Rel("R_cno").Tuples()[0].V
	var mix rdb.Stats
	for _, m := range readMix {
		q := strings.ReplaceAll(m.query, "%s", cno)
		res, err := core.Translate(xpath.MustParse(q), workload.Dept(), core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		ex := rdb.NewExec(db)
		var tr obs.Trace
		if _, err := ex.RunCtx(context.Background(), res.Program, &tr); err != nil {
			t.Fatal(err)
		}
		sum := 0
		for _, ev := range tr.Events {
			sum += ev.Ops.TuplesOut
		}
		if sum != ex.Stats.TuplesOut || tr.Totals().Ops != ex.Stats.Ops() {
			t.Errorf("%s: the statements' tuples= add up to %d and their counters to %+v; the run's are %d and %+v",
				q, sum, tr.Totals().Ops, ex.Stats.TuplesOut, ex.Stats.Ops())
		}
		text := obs.Explain(res.Program, &tr, nil)
		for word, n := range map[string]int{"stairscans=": ex.Stats.StairScans, "exists=": ex.Stats.ExistsProbes} {
			if strings.Contains(text, word) != (n > 0) {
				t.Errorf("%s: %d, and Explain prints %q: %v\n%s", q, n, word, strings.Contains(text, word), text)
			}
		}
		mix.Add(ex.Stats)
	}
	if mix.StairScans == 0 || mix.ExistsProbes == 0 {
		t.Fatalf("the read mix took no staircase scan or no existence probe: %+v", mix)
	}
}

// TestImageCodecAllocs is the counted test of the image codec, on dept
// databases of 1× and 4× a base: Save allocates at most once per distinct
// symbol, and Load once per distinct symbol and per node-table chunk, beside
// a constant per relation — nothing per record.
func TestImageCodecAllocs(t *testing.T) {
	if rdb.RaceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const base, perRel = 8000, 40
	for _, scale := range []int{1, 4} {
		db := deptDB(t, scale*base)
		img := image(t, db)
		syms, rels, nodes := db.Syms.Len(), len(db.Rels), db.NumNodes()
		save := testing.AllocsPerRun(3, func() {
			if err := db.Save(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
		var loaded *rdb.DB
		load := testing.AllocsPerRun(3, func() {
			var err error
			if loaded, err = rdb.Load(bytes.NewReader(img)); err != nil {
				t.Fatal(err)
			}
		})
		chunks := rdb.NodeChunks(loaded)
		t.Logf("%d×: %d nodes, %d symbols, %d chunks, %d relations: Save %.0f allocations (%.3f a node), Load %.0f (%.3f a node)",
			scale, nodes, syms, chunks, rels, save, save/float64(nodes), load, load/float64(nodes))
		if limit := syms + perRel*rels; save > float64(limit) {
			t.Errorf("%d×: Save made %.0f allocations, over %d (symbols + %d a relation)", scale, save, limit, perRel)
		}
		if limit := syms + chunks + perRel*rels; load > float64(limit) {
			t.Errorf("%d×: Load made %.0f allocations, over %d (symbols + chunks + %d a relation)", scale, load, limit, perRel)
		}
	}
}
