package cluster_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"xpath2sql"
	"xpath2sql/internal/backend"
	"xpath2sql/internal/cluster"
	"xpath2sql/internal/rdb"
	"xpath2sql/internal/store"
	"xpath2sql/internal/workload"
	"xpath2sql/internal/xmlgen"
)

// TestScopedWorkIsTheDocumentsWork is proportionality on counts, not clocks:
// in a collection of N equal documents, a run scoped to one of them performs
// exactly the operator work of the same program on that document loaded
// alone — for N = 1, 4 and 16, on both physical paths, serial and scheduled.
// The unscoped run beside it shows the counters do move with N.
func TestScopedWorkIsTheDocumentsWork(t *testing.T) {
	d := workload.Dept()
	doc, err := xmlgen.Generate(d, xmlgen.Options{
		XL: 7, XR: 3, Seed: 5, MaxNodes: 400,
		ValueFunc: func(typ string, r *rand.Rand) string { return fmt.Sprintf("%s-%d", typ, r.Intn(5)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	single, err := xpath2sql.Shred(doc, d)
	if err != nil {
		t.Fatal(err)
	}
	size := single.NumNodes()
	e := xpath2sql.New(d)
	ctx := context.Background()
	queries := []string{
		"dept//project",
		"dept/course/prereq//course/prereq/course",
		"dept//student[qualified//course]",
		"dept/course[cno and not(.//project)]",
		"dept//cno[text()='cno-3']",
		"//course[.//project]/cno | //student",
		"//cno",
	}
	alone := backend.AdoptDB(single, 0)
	for _, n := range []int{1, 4, 16} {
		docs := make([]*rdb.DB, n)
		for i := range docs {
			if docs[i], err = xpath2sql.Shred(doc, d); err != nil {
				t.Fatal(err)
			}
		}
		coll, err := cluster.BuildCollection(d, docs)
		if err != nil {
			t.Fatal(err)
		}
		snap := backend.AdoptDB(coll, 0)
		for _, qs := range queries {
			tr, err := e.TranslateString(ctx, qs)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []rdb.IntervalMode{rdb.IntervalAuto, rdb.IntervalOff} {
				for _, workers := range []int{1, 4} {
					opts := backend.ExecOptions{Workers: workers, Intervals: mode}
					want, err := alone.Execute(ctx, tr.Program(), opts)
					if err != nil {
						t.Fatal(err)
					}
					if len(want.IDs) == 0 && qs != queries[3] {
						t.Fatalf("%s answers empty on the document: the comparison would prove nothing", qs)
					}
					for _, i := range []int{0, n / 2, n - 1} {
						opts.Doc = 1 + i*size
						got, err := snap.Execute(ctx, tr.Program(), opts)
						if err != nil {
							t.Fatalf("N=%d %s in document %d: %v", n, qs, i, err)
						}
						shifted := make([]int, len(want.IDs))
						for k, id := range want.IDs {
							shifted[k] = id + i*size
						}
						if !slices.Equal(got.IDs, shifted) {
							t.Fatalf("N=%d %s in document %d (%v, workers %d) = %v, the document alone answers %v",
								n, qs, i, mode, workers, got.IDs, shifted)
						}
						if got.Stats != want.Stats {
							t.Fatalf("N=%d %s in document %d (%v, workers %d) did\n  %+v\nthe document alone takes\n  %+v",
								n, qs, i, mode, workers, got.Stats, want.Stats)
						}
					}
					opts.Doc = 0
					whole, err := snap.Execute(ctx, tr.Program(), opts)
					if err != nil {
						t.Fatal(err)
					}
					if len(whole.IDs) != n*len(want.IDs) || (n > 1 && len(want.IDs) > 0 && whole.Stats.TuplesOut <= want.Stats.TuplesOut) {
						t.Fatalf("N=%d %s unscoped: %d answers, %+v — expected %d answers and more work than one document's %+v",
							n, qs, len(whole.IDs), whole.Stats, n*len(want.IDs), want.Stats)
					}
				}
			}
		}
	}
}

// TestScopedReadAtTheEpochItPinned: scoped readers race a writer, so a read
// pins its shard's epoch and an update may publish a newer one before the read
// has executed — the one way a read answers from an epoch older than the
// newest. Whatever it pinned, the answer must be the oracle's for that document
// as of the Watermark it reports: the scope's interval comes from the pinned
// epoch's own encoding, never from a newer one.
func TestScopedReadAtTheEpochItPinned(t *testing.T) {
	rec := rec41()
	d, types := rec.DTD, rec.Types
	collection := randCollection(t, d, 42, 4)
	const shards = 2
	pl := cluster.RoundRobinPlacement{}
	c, err := cluster.Open(cluster.Config{DTD: d, Shards: shards, Placement: pl}, collection)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := store.Open(store.Config{DTD: d, Seed: collection, Fsync: store.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	e := xpath2sql.New(d)
	ctx := context.Background()
	var trs []*xpath2sql.Translation
	for _, qs := range []string{"doc//" + types[1], "//" + types[2], "doc//" + types[0] + "[not(" + types[1] + ")]"} {
		tr, err := e.TranslateString(ctx, qs)
		if err != nil {
			t.Fatal(err)
		}
		trs = append(trs, tr)
	}
	// No update creates or deletes a document, so the roots stay put.
	roots := c.DocRoots()

	// A reader waits after each read for the writer to take note of it, which
	// the writer does between two updates: so a read starts as an update does,
	// and races it. The reader only records what it read, to be checked once
	// the writer has the history to check it against.
	type scopedRead struct {
		root, query int
		ans         *cluster.Answer
		err         error
	}
	const readers = 2
	reads := make([][]scopedRead, readers)
	done, tick := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	for w := range reads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for {
				root, query := roots[r.Intn(len(roots))], r.Intn(len(trs))
				ans, err := c.Exec(ctx, trs[query].Program(), cluster.ExecOptions{Doc: root})
				reads[w] = append(reads[w], scopedRead{root, query, ans, err})
				select {
				case tick <- struct{}{}:
				case <-done:
					return
				}
			}
		}()
	}

	// history[shard][epoch] is the oracle database as of the update that took
	// that shard to that epoch. Later updates to other shards leave the
	// shard's documents as they were, so any entry serves for them.
	history := make([]map[uint64]*rdb.DB, shards)
	epochs := make([]uint64, shards)
	for i, sh := range c.Stats().Shards {
		epochs[i] = sh.Epoch
		history[i] = map[uint64]*rdb.DB{sh.Epoch: st.View().DB}
	}
	func() {
		defer wg.Wait()
		defer close(done)
		r := rand.New(rand.NewSource(9))
		for step := 0; step < 60; step++ {
			if !applyBoth(t, r, c, st, rec) {
				continue
			}
			for i, sh := range c.Stats().Shards {
				if sh.Epoch != epochs[i] {
					epochs[i] = sh.Epoch
					history[i][sh.Epoch] = st.View().DB
				}
			}
			for range readers {
				<-tick
			}
		}
	}()

	checked, stale := 0, 0
	for _, rd := range slices.Concat(reads...) {
		if rd.err != nil {
			t.Fatalf("scoped read of document %d: %v", rd.root, rd.err)
		}
		owner := pl.Owner(rd.root, shards)
		odb, ok := history[owner][rd.ans.Watermark]
		if !ok {
			t.Fatalf("an answer pinned epoch %d of shard %d, which no update produced", rd.ans.Watermark, owner)
		}
		res, err := backend.AdoptDB(odb, 0).Execute(ctx, trs[rd.query].Program(), backend.ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := []int{}
		for _, id := range res.IDs {
			if oracleDocRoot(odb, id) == rd.root {
				want = append(want, id)
			}
		}
		if !slices.Equal(append([]int{}, rd.ans.IDs...), want) {
			t.Fatalf("document %d at epoch %d = %v, the oracle of that epoch has %v", rd.root, rd.ans.Watermark, rd.ans.IDs, want)
		}
		checked++
		if rd.ans.Watermark < epochs[owner] {
			stale++
		}
	}
	if stale == 0 {
		t.Fatal("every read pinned its shard's last epoch: none ran while the writer did")
	}
	t.Logf("%d scoped reads checked, %d of them at an epoch older than their shard's last", checked, stale)
}
