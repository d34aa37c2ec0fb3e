package cluster_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"xpath2sql"
	"xpath2sql/internal/cluster"
	"xpath2sql/internal/difftest"
	"xpath2sql/internal/dtd"
	"xpath2sql/internal/rdb"
	"xpath2sql/internal/store"
)

// The cluster differential suite: for random recursive DTDs, random document
// collections, random placements and mixed query/update sequences, an N-shard
// cluster must answer byte-identically to a single store over the same
// collection — scatter reads, document-scoped reads and router-allocated
// writes alike.

// rec41 is the random recursive DTD most of the package's tests share.
func rec41() difftest.Rec { return difftest.RecDTD(difftest.Seed(41)) }

// randCollection generates nDocs random documents of the DTD and merges them
// into one collection database.
func randCollection(t *testing.T, d *dtd.DTD, seed int64, nDocs int) *rdb.DB {
	t.Helper()
	docs := make([]*rdb.DB, 0, nDocs)
	for i := 0; i < nDocs; i++ {
		db, err := xpath2sql.Shred(difftest.Doc(t, d, seed+int64(i)*101, 80), d)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, db)
	}
	collection, err := cluster.BuildCollection(d, docs)
	if err != nil {
		t.Fatal(err)
	}
	return collection
}

// oracleAnswer re-executes the translation on the single-store oracle's
// current epoch.
func oracleAnswer(t *testing.T, tr *xpath2sql.Translation, st *store.Store) []int {
	t.Helper()
	ans, err := tr.ExecuteOn(context.Background(), xpath2sql.NewLocalBackend(st.View().DB))
	if err != nil {
		t.Fatal(err)
	}
	return ans.IDs
}

// oracleDocRoot walks the oracle catalog up to the document root.
func oracleDocRoot(db *rdb.DB, id int) int {
	for {
		p := db.Parent(id)
		if p == 0 {
			return id
		}
		id = p
	}
}

// applyBoth draws one update and applies it through the cluster router AND
// the single-store oracle, asserting the router-side global ID allocator
// assigns exactly the IDs the single store would. ok=false means no target
// existed.
func applyBoth(t *testing.T, src difftest.Source, c *cluster.Cluster, st *store.Store, rec difftest.Rec) bool {
	t.Helper()
	db := st.View().DB
	u, ok := rec.Update(src, liveNodes(db), db.Label)
	if !ok {
		return false
	}
	req := map[difftest.UpdateOp]cluster.UpdateRequest{
		difftest.Insert: {Op: store.OpInsert, Parent: u.Node, Fragment: u.Fragment},
		difftest.Delete: {Op: store.OpDelete, Node: u.Node},
		difftest.Text:   {Op: store.OpUpdateText, Node: u.Node, Value: u.Value},
	}[u.Op]
	cres, err := c.Update(context.Background(), req)
	if err != nil {
		typ, _ := db.Label(u.Node)
		t.Fatalf("cluster %+v (a %s): %v", req, typ, err)
	}
	ores, err := applyToStore(st, u)
	if err != nil {
		t.Fatalf("oracle %+v: %v", req, err)
	}
	if cres.NodeID != ores.NodeID || cres.Nodes != ores.Nodes {
		t.Fatalf("%s allocation diverged: cluster (%d, %d nodes), single store (%d, %d nodes)",
			req.Op, cres.NodeID, cres.Nodes, ores.NodeID, ores.Nodes)
	}
	return true
}

// applyToStore applies u to st.
func applyToStore(st *store.Store, u difftest.Update) (store.UpdateResult, error) {
	switch u.Op {
	case difftest.Insert:
		return st.InsertSubtree(u.Node, u.Fragment)
	case difftest.Delete:
		return st.DeleteSubtree(u.Node)
	}
	return st.UpdateText(u.Node, u.Value)
}

// liveNodes lists db's node IDs, ascending.
func liveNodes(db *rdb.DB) []int {
	ids := make([]int, 0, db.NumNodes())
	db.EachNode(func(id int) { ids = append(ids, id) })
	return ids
}

// TestClusterDifferential is the randomized differential property test:
// N-shard merged answers ≡ single-store execution over random recursive
// DTDs, random placements and mixed query/update sequences, for N ∈ {2,3,4}.
func TestClusterDifferential(t *testing.T) {
	seeds := []int64{3, 17, 29}
	updatesPerRun := 15
	queriesPerRun := 6
	if testing.Short() {
		seeds, updatesPerRun, queriesPerRun = seeds[:1], 6, 4
	}
	for _, seed := range seeds {
		for _, shards := range []int{2, 3, 4} {
			t.Run(fmt.Sprintf("seed%d/shards%d", seed, shards), func(t *testing.T) {
				t.Parallel()
				rec := difftest.RecDTD(difftest.Seed(seed))
				nonEmpty, scoped := checkCluster(t, rec, seed+1, shards, difftest.Seed(seed*1000+int64(shards)), queriesPerRun, updatesPerRun)
				if nonEmpty == 0 || scoped == 0 {
					t.Fatalf("%d non-empty scatter answers, %d non-empty scoped answers of the unanchored queries — the suite tested nothing", nonEmpty, scoped)
				}
			})
		}
	}
}

// FuzzClusterDifferential is TestClusterDifferential on the instances the
// fuzzer's bytes decode to: a recursive DTD, a collection, a shard count, a
// placement, queries and updates.
func FuzzClusterDifferential(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1})
	f.Add([]byte{2, 3, 1, 0, 2, 1, 2, 2, 7, 1, 9, 0, 3, 3, 1, 4})
	f.Fuzz(func(t *testing.T, b []byte) {
		src := difftest.FromBytes(b)
		rec := difftest.RecDTD(src)
		checkCluster(t, rec, int64(src.Intn(256)), 2+src.Intn(3), src, 2, 3)
	})
}

// checkCluster opens a cluster of the given shard count over a collection of
// rec (xmlgen seeds from collSeed) beside a single store over the same
// collection, draws its placement, interval mode and queries, and compares
// the two after each drawn update. It counts the non-empty scatter answers
// and the non-empty scoped answers of the fixed unanchored queries.
func checkCluster(t *testing.T, rec difftest.Rec, collSeed int64, shards int, r difftest.Source, queriesPerRun, updatesPerRun int) (nonEmpty, scopedNonEmpty int) {
	t.Helper()
	d, types := rec.DTD, rec.Types
	if err := d.Check(); err != nil {
		t.Fatalf("invalid DTD: %v", err)
	}
	collection := randCollection(t, d, collSeed, 3+r.Intn(3))

	var pl cluster.Placement = cluster.HashPlacement{}
	if r.Intn(2) == 0 {
		pl = cluster.RoundRobinPlacement{}
	}
	// One run in three executes on the fixpoint path: scoped reads
	// then iterate bounded runs under Φ instead of the kernel.
	intervals := rdb.IntervalAuto
	if r.Intn(3) == 0 {
		intervals = rdb.IntervalOff
	}
	c, err := cluster.Open(cluster.Config{
		DTD: d, Shards: shards, Placement: pl, Intervals: intervals,
	}, collection)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	st, err := store.Open(store.Config{DTD: d, Seed: collection, Fsync: store.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	e := xpath2sql.New(d)

	// Register random translatable queries; untranslatable draws
	// are skipped, not errors (and a hundred of them end the search).
	var trs []*xpath2sql.Translation
	var qstrs []string
	// Every run carries the two shapes a root selection cannot
	// scope, whatever the draws below come to.
	fixed := []string{"//" + types[1], "doc//" + types[2] + " | //" + types[0] + "[not(" + types[1] + ")]"}
	for tries := 0; len(trs) < queriesPerRun+len(fixed) && tries < 100; tries++ {
		q := difftest.QueryString(r, types)
		if len(trs) < len(fixed) {
			q = fixed[len(trs)]
		}
		tr, err := e.TranslateString(context.Background(), q)
		if err != nil {
			if len(trs) < len(fixed) {
				t.Fatalf("translate %s: %v", q, err)
			}
			continue
		}
		trs = append(trs, tr)
		qstrs = append(qstrs, q)
	}

	compare := func(when string) {
		t.Helper()
		for i, tr := range trs {
			want := oracleAnswer(t, tr, st)
			if len(want) > 0 {
				nonEmpty++
			}
			ans, err := c.Exec(context.Background(), tr.Program(), cluster.ExecOptions{})
			if err != nil {
				t.Fatalf("%s: scatter %s: %v", when, qstrs[i], err)
			}
			if ans.Degraded {
				t.Fatalf("%s: scatter %s degraded with no failures injected", when, qstrs[i])
			}
			if !slices.Equal(ans.IDs, want) {
				t.Fatalf("%s: scatter %s = %v, single store %v (placement %s, %d shards)",
					when, qstrs[i], ans.IDs, want, pl.Name(), shards)
			}
		}
		// A document-scoped read of every query must be the oracle
		// answer restricted
		// to the document's subtree — after updates the root's
		// interval has moved and the oracle walks parents, so the
		// two sides share no mechanism.
		roots := c.DocRoots()
		if len(roots) == 0 {
			t.Fatalf("%s: no document roots", when)
		}
		root := roots[r.Intn(len(roots))]
		odb := st.View().DB
		for i, tr := range trs {
			want := []int{}
			for _, id := range oracleAnswer(t, tr, st) {
				if oracleDocRoot(odb, id) == root {
					want = append(want, id)
				}
			}
			ans, err := c.Exec(context.Background(), tr.Program(), cluster.ExecOptions{Doc: root})
			if err != nil {
				t.Fatalf("%s: %s scoped to %d: %v", when, qstrs[i], root, err)
			}
			if i < len(fixed) && len(want) > 0 {
				scopedNonEmpty++
			}
			if !slices.Equal(append([]int{}, ans.IDs...), want) {
				t.Fatalf("%s: %s scoped to %d (%v) = %v, oracle restriction %v",
					when, qstrs[i], root, intervals, ans.IDs, want)
			}
		}
	}

	compare("initial")
	for i := 0; i < updatesPerRun; i++ {
		if !applyBoth(t, r, c, st, rec) {
			continue
		}
		compare(fmt.Sprintf("after update %d", i))
	}
	s := c.Stats()
	if s.Scatters == 0 || s.DocQueries == 0 {
		t.Fatalf("stats did not count the work: %+v", s)
	}
	return nonEmpty, scopedNonEmpty
}
