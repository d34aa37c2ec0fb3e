package rdb_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xpath2sql/internal/core"
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
// has a keyed side and every union operands of different types (all), at most
// the union's operand rows where the only dedup is a union (union), and
// otherwise less than a hash of every tuple.
var readMix = []struct {
	query string
	needs string // "none", "union" or "some"
}{
	{"dept//project", "none"},
	{"dept//cno", "none"},
	{"dept//course//title", "some"},
	{"dept//student[qualified//course]", "some"},
	{"dept/course[cno and not(.//project)]", "union"},
	{"dept/course/prereq//course/prereq/course", "some"},
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

// unionOperandRows sums, over every UnionAll the executor evaluates in p (a
// DescScan's fixpoint alternative is not: the interval kernel answers it), the
// rows of its operands, each operand run on its own.
func unionOperandRows(t *testing.T, db *rdb.DB, p *ra.Program) int {
	t.Helper()
	rows, seen := 0, map[string]bool{}
	var walk func(pl ra.Plan)
	walk = func(pl ra.Plan) {
		switch pl := pl.(type) {
		case ra.Temp:
			if !seen[pl.Name] {
				seen[pl.Name] = true
				walk(p.Lookup(pl.Name))
			}
			return
		case ra.DescScan:
			for _, k := range []ra.Plan{pl.Start, pl.End} {
				if k != nil {
					walk(k)
				}
			}
			return
		case ra.UnionAll:
			for _, k := range pl.Kids {
				stmts := append(p.Stmts[:len(p.Stmts):len(p.Stmts)], ra.Stmt{Name: "operand", Plan: k})
				rel, err := rdb.NewExec(db).Run(&ra.Program{Stmts: stmts, Result: "operand"})
				if err != nil {
					t.Fatal(err)
				}
				rows += rel.Len()
			}
		}
		for _, k := range ra.Inputs(pl) {
			walk(k)
		}
	}
	walk(ra.Temp{Name: p.Result})
	return rows
}

// hashing is what one pooled run of p on db produces and what its pair sets
// cost: inserts, and the slots clearing them writes.
func hashing(t *testing.T, db *rdb.DB, p *ra.Program) (tuples, inserts, cleared int) {
	t.Helper()
	st := rdb.AcquireState(db)
	if _, err := st.Exec().Run(p); err != nil {
		t.Fatal(err)
	}
	tuples = st.Exec().Stats.TuplesOut
	inserts, cleared = st.ReleaseCounted()
	return tuples, inserts, cleared
}

// updated applies n updates to db through a store, drawn as write-mixed draws
// them: in the ratio 2:1:1, a 9-element course inserted under the root, a
// delete of a course inserted earlier, a text update of a cno leaf of db. It
// returns the last epoch's database and the same document loaded afresh.
func updated(t *testing.T, db *rdb.DB, n int) (after, fresh *rdb.DB) {
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
	}
	after = st.View().DB
	var img bytes.Buffer
	if err := after.Save(&img); err != nil {
		t.Fatal(err)
	}
	if fresh, err = rdb.Load(&img); err != nil {
		t.Fatal(err)
	}
	return after, fresh
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
// a fresh load of the document the updates left.
func TestReadMixHashesOnlyWhereDuplicatesArise(t *testing.T) {
	const base = 1000
	scales := []int{16, 4, 1}
	dbs := make([]*rdb.DB, len(scales))
	for i, scale := range scales {
		dbs[i] = deptDB(t, scale*base)
	}
	cno := dbs[len(dbs)-1].Rel("R_cno").Tuples()[0].V
	queries, progs := make([]string, len(readMix)), make([]*ra.Program, len(readMix))
	for i, m := range readMix {
		q := m.query
		if strings.Contains(q, "%s") {
			q = fmt.Sprintf(q, cno)
		}
		queries[i] = q
		res, err := core.Translate(xpath.MustParse(q), workload.Dept(), core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		progs[i] = res.Program
	}
	for si, scale := range scales {
		db := dbs[si]
		after, fresh := updated(t, db, 100)
		for i, m := range readMix {
			q := queries[i]
			tuples, inserts, cleared := hashing(t, db, progs[i])
			_, afterInserts, _ := hashing(t, after, progs[i])
			_, freshInserts, _ := hashing(t, fresh, progs[i])
			t.Logf("%2d× %-42s tuples %6d  inserts %6d  cleared %6d  after 100 updates %6d (fresh load %6d)",
				scale, q, tuples, inserts, cleared, afterInserts, freshInserts)
			switch {
			case m.needs == "none" && (inserts != 0 || cleared != 0 || afterInserts != 0):
				t.Errorf("%d× %s: %d pair-set inserts and %d slots cleared, %d inserts after 100 updates, want 0, 0 and 0", scale, q, inserts, cleared, afterInserts)
			case m.needs == "union":
				if rows := unionOperandRows(t, db, progs[i]); inserts > rows {
					t.Errorf("%d× %s: %d pair-set inserts, want at most the %d rows of the union operands", scale, q, inserts, rows)
				}
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
	}
}
