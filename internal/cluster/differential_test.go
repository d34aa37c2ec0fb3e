package cluster_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"xpath2sql"
	"xpath2sql/internal/cluster"
	"xpath2sql/internal/dtd"
	"xpath2sql/internal/rdb"
	"xpath2sql/internal/store"
	"xpath2sql/internal/xmlgen"
)

// The cluster differential suite: for random recursive DTDs, random document
// collections, random placements and mixed query/update sequences, an N-shard
// cluster must answer byte-identically to a single store over the same
// collection — scatter reads, document-scoped reads and router-allocated
// writes alike.

// randRecDTD synthesizes a random recursive DTD: a chain t0 → t1 → … → tN
// closed into a cycle by a back edge, random chord edges, and text leaves.
// Every production is star-based, so any subset of a type's children — and in
// particular the empty element — is a valid instance.
func randRecDTD(seed int64) (*dtd.DTD, map[string][]string, []string) {
	r := rand.New(rand.NewSource(seed))
	n := 4 + r.Intn(3)
	types := make([]string, n)
	for i := range types {
		types[i] = fmt.Sprintf("t%d", i)
	}
	leaves := []string{"val", "tag"}

	kids := map[string][]string{"doc": {types[0]}}
	for i, typ := range types {
		if i+1 < n {
			kids[typ] = append(kids[typ], types[i+1])
		}
		for j := range types {
			if j != i && r.Intn(4) == 0 {
				kids[typ] = append(kids[typ], types[j])
			}
		}
		if r.Intn(2) == 0 {
			kids[typ] = append(kids[typ], leaves[r.Intn(len(leaves))])
		}
	}
	kids[types[n-1]] = append(kids[types[n-1]], types[r.Intn(n-1)])

	d := dtd.New("doc")
	for typ, ks := range kids {
		seen := map[string]bool{}
		var items []dtd.Content
		for _, k := range ks {
			if seen[k] {
				continue
			}
			seen[k] = true
			items = append(items, dtd.Star{Item: dtd.Name{Type: k}})
		}
		if len(items) == 1 {
			d.SetProd(typ, items[0])
		} else {
			d.SetProd(typ, dtd.Seq{Items: items})
		}
	}
	for _, leaf := range leaves {
		d.SetProd(leaf, dtd.Name{Text: true})
	}
	for typ, ks := range kids {
		seen := map[string]bool{}
		var uniq []string
		for _, k := range ks {
			if !seen[k] {
				seen[k] = true
				uniq = append(uniq, k)
			}
		}
		kids[typ] = uniq
	}
	return d, kids, types
}

// randQueryStr builds a random query of the paper's fragment: child and
// descendant steps, wildcards, and qualifiers (nested paths, negation, text
// tests). One in four is not anchored at the root step (//x…), and one in
// five is a union of two — the shapes whose plans start from whole stored
// relations rather than from σ[F='_'].
func randQueryStr(r *rand.Rand, types []string) string {
	if r.Intn(5) == 0 {
		return randPathStr(r, types) + " | " + randPathStr(r, types)
	}
	return randPathStr(r, types)
}

func randPathStr(r *rand.Rand, types []string) string {
	pick := func() string { return types[r.Intn(len(types))] }
	var b strings.Builder
	if r.Intn(4) == 0 {
		b.WriteString("//" + pick())
	} else {
		b.WriteString("doc")
	}
	steps := 1 + r.Intn(3)
	for i := 0; i < steps; i++ {
		if r.Intn(2) == 0 {
			b.WriteString("//")
		} else {
			b.WriteString("/")
		}
		if r.Intn(6) == 0 {
			b.WriteString("*")
		} else {
			b.WriteString(pick())
		}
		if r.Intn(4) == 0 {
			switch r.Intn(4) {
			case 0:
				fmt.Fprintf(&b, "[%s]", pick())
			case 1:
				fmt.Fprintf(&b, "[%s//%s]", pick(), pick())
			case 2:
				fmt.Fprintf(&b, "[not(%s)]", pick())
			default:
				fmt.Fprintf(&b, "[val[text()='val-%d']]", r.Intn(5))
			}
		}
	}
	return b.String()
}

// randFragment generates a DTD-valid XML fragment of the given type.
func randFragment(r *rand.Rand, kids map[string][]string, typ string, depth int) string {
	var b strings.Builder
	var write func(typ string, depth int)
	write = func(typ string, depth int) {
		fmt.Fprintf(&b, "<%s>", typ)
		if typ == "val" || typ == "tag" {
			fmt.Fprintf(&b, "%s-%d", typ, r.Intn(5))
		} else if depth > 0 {
			ks := kids[typ]
			for c := r.Intn(3); c > 0 && len(ks) > 0; c-- {
				write(ks[r.Intn(len(ks))], depth-1)
			}
		}
		fmt.Fprintf(&b, "</%s>", typ)
	}
	write(typ, depth)
	return b.String()
}

// randCollection generates nDocs random documents of the DTD and merges them
// into one collection database.
func randCollection(t *testing.T, d *dtd.DTD, seed int64, nDocs int) *rdb.DB {
	t.Helper()
	docs := make([]*rdb.DB, 0, nDocs)
	for i := 0; i < nDocs; i++ {
		doc, err := xmlgen.Generate(d, xmlgen.Options{
			XL: 5, XR: 3, Seed: seed + int64(i)*101, MaxNodes: 80,
			ValueFunc: func(typ string, vr *rand.Rand) string {
				return fmt.Sprintf("%s-%d", typ, vr.Intn(5))
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		db, err := xpath2sql.Shred(doc, d)
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

// applyBoth applies one random update through the cluster router AND the
// single-store oracle, asserting the router-side global ID allocator assigns
// exactly the IDs the single store would. ok=false means no target existed.
func applyBoth(t *testing.T, r *rand.Rand, c *cluster.Cluster, st *store.Store, kids map[string][]string) bool {
	t.Helper()
	db := st.View().DB
	ids := make([]int, 0, len(db.Labels))
	for id := range db.Labels {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	ctx := context.Background()
	switch r.Intn(4) {
	case 0, 1: // insert twice as often: it keeps the collection from draining
		var parents []int
		for _, id := range ids {
			if len(kids[db.Labels[id]]) > 0 {
				parents = append(parents, id)
			}
		}
		if len(parents) == 0 {
			return false
		}
		p := parents[r.Intn(len(parents))]
		ks := kids[db.Labels[p]]
		frag := randFragment(r, kids, ks[r.Intn(len(ks))], 2)
		cres, err := c.Update(ctx, cluster.UpdateRequest{Op: store.OpInsert, Parent: p, Fragment: frag})
		if err != nil {
			t.Fatalf("cluster insert %q under %d (%s): %v", frag, p, db.Labels[p], err)
		}
		ores, err := st.InsertSubtree(p, frag)
		if err != nil {
			t.Fatalf("oracle insert: %v", err)
		}
		if cres.NodeID != ores.NodeID || cres.Nodes != ores.Nodes {
			t.Fatalf("insert allocation diverged: cluster (%d, %d nodes), single store (%d, %d nodes)",
				cres.NodeID, cres.Nodes, ores.NodeID, ores.Nodes)
		}
	case 2: // delete a non-root subtree
		var cands []int
		for _, id := range ids {
			if db.Parent(id) != 0 {
				cands = append(cands, id)
			}
		}
		if len(cands) == 0 {
			return false
		}
		n := cands[r.Intn(len(cands))]
		if _, err := c.Update(ctx, cluster.UpdateRequest{Op: store.OpDelete, Node: n}); err != nil {
			t.Fatalf("cluster delete %d: %v", n, err)
		}
		if _, err := st.DeleteSubtree(n); err != nil {
			t.Fatalf("oracle delete %d: %v", n, err)
		}
	default: // text update
		var leafIDs []int
		for _, id := range ids {
			if l := db.Labels[id]; l == "val" || l == "tag" {
				leafIDs = append(leafIDs, id)
			}
		}
		if len(leafIDs) == 0 {
			return false
		}
		id := leafIDs[r.Intn(len(leafIDs))]
		v := fmt.Sprintf("%s-%d", db.Labels[id], r.Intn(5))
		if _, err := c.Update(ctx, cluster.UpdateRequest{Op: store.OpUpdateText, Node: id, Value: v}); err != nil {
			t.Fatalf("cluster update text %d: %v", id, err)
		}
		if _, err := st.UpdateText(id, v); err != nil {
			t.Fatalf("oracle update text %d: %v", id, err)
		}
	}
	return true
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
			seed, shards := seed, shards
			t.Run(fmt.Sprintf("seed%d/shards%d", seed, shards), func(t *testing.T) {
				t.Parallel()
				d, kids, types := randRecDTD(seed)
				if err := d.Check(); err != nil {
					t.Fatalf("invalid DTD: %v", err)
				}
				r := rand.New(rand.NewSource(seed*1000 + int64(shards)))
				collection := randCollection(t, d, seed+1, 3+r.Intn(3))

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
				// are skipped, not errors.
				var trs []*xpath2sql.Translation
				var qstrs []string
				// Every run carries the two shapes a root selection cannot
				// scope, whatever the draws below come to.
				fixed := []string{"//" + types[1], "doc//" + types[2] + " | //" + types[0] + "[not(" + types[1] + ")]"}
				for len(trs) < queriesPerRun+len(fixed) {
					q := randQueryStr(r, types)
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

				nonEmpty, scopedNonEmpty := 0, 0
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
					// A document-scoped read of every query, at 1 and 3 workers,
					// must be the oracle answer restricted
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
						for _, workers := range []int{1, 3} {
							ans, err := c.Exec(context.Background(), tr.Program(), cluster.ExecOptions{Doc: root, Workers: workers})
							if err != nil {
								t.Fatalf("%s: %s scoped to %d (workers %d): %v", when, qstrs[i], root, workers, err)
							}
							if i < len(fixed) && len(want) > 0 {
								scopedNonEmpty++
							}
							if !slices.Equal(append([]int{}, ans.IDs...), want) {
								t.Fatalf("%s: %s scoped to %d (workers %d, %v) = %v, oracle restriction %v",
									when, qstrs[i], root, workers, intervals, ans.IDs, want)
							}
						}
					}
				}

				compare("initial")
				for i := 0; i < updatesPerRun; i++ {
					if !applyBoth(t, r, c, st, kids) {
						continue
					}
					compare(fmt.Sprintf("after update %d", i))
				}
				if nonEmpty == 0 || scopedNonEmpty == 0 {
					t.Fatalf("%d non-empty scatter answers, %d non-empty scoped answers of the unanchored queries — the suite tested nothing", nonEmpty, scopedNonEmpty)
				}
				s := c.Stats()
				if s.Scatters == 0 || s.DocQueries == 0 {
					t.Fatalf("stats did not count the work: %+v", s)
				}
			})
		}
	}
}
