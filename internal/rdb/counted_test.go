package rdb_test

import (
	"fmt"
	"strings"
	"testing"

	"xpath2sql/internal/core"
	"xpath2sql/internal/ra"
	"xpath2sql/internal/rdb"
	"xpath2sql/internal/shred"
	"xpath2sql/internal/workload"
	"xpath2sql/internal/xmlgen"
	"xpath2sql/internal/xmltree"
	"xpath2sql/internal/xpath"
)

// readMix is the read-desc workload's query mix (benchmark/gen.go), each
// query with the pair-set work its plan cannot avoid: none where every join
// has a keyed side (all), at most the union's operand rows where the only
// dedup is a union (union), and otherwise less than a hash of every tuple.
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
	{"dept//sno | dept//pno", "union"},
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

// TestReadMixHashesOnlyWhereDuplicatesArise counts the pair-set work of the
// read mix on a pooled state over dept databases of 16×, 4× and 1× a base
// size — largest first, so a state the pool hands back retains the capacity
// the larger run grew. A temporary pays for dedup only where a duplicate can
// arise: the plans whose every join has a keyed side hash nothing and clear
// nothing at any size; a union hashes at most its operands' rows; no plan
// hashes every tuple it produces; and clearing a set writes slots in
// proportion to the keys it held (at most 8 a key), not to its capacity.
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
		for i, m := range readMix {
			q := queries[i]
			st := rdb.AcquireState(db)
			if _, err := st.Exec().Run(progs[i]); err != nil {
				t.Fatal(err)
			}
			tuples := st.Exec().Stats.TuplesOut
			inserts, cleared := st.ReleaseCounted()
			t.Logf("%2d× %-42s tuples %6d  inserts %6d  cleared %6d", scale, q, tuples, inserts, cleared)
			switch {
			case m.needs == "none" && (inserts != 0 || cleared != 0):
				t.Errorf("%d× %s: %d pair-set inserts and %d slots cleared, want 0 and 0: every join has a keyed side", scale, q, inserts, cleared)
			case m.needs == "union":
				if rows := unionOperandRows(t, db, progs[i]); inserts > rows {
					t.Errorf("%d× %s: %d pair-set inserts, want at most the %d rows of the union operands", scale, q, inserts, rows)
				}
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
