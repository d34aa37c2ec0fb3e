package ivm_test

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"xpath2sql"
	"xpath2sql/internal/difftest"
	"xpath2sql/internal/obs"
	"xpath2sql/internal/ra"
	"xpath2sql/internal/rdb"
	"xpath2sql/internal/store"
)

// The randomized differential suite: for random recursive DTDs and random
// queries of the paper's fragment, a set of standing views maintained
// through the real store (WAL, epochs, the hub's maintenance matrix —
// insert and delete deltas, rebuild fallback) must track full re-execution
// exactly across arbitrary update sequences, under each translation strategy,
// and fall back only for the reasons the matrix names. Run
// under -race in CI, it also exercises the hub's maintainer goroutine
// against concurrent store writers.

// randUpdate draws one update and applies it through the store. It reports
// the epoch to wait for, or ok=false when no target exists (e.g. nothing
// deletable).
func randUpdate(t *testing.T, src difftest.Source, st *store.Store, rec difftest.Rec) (ur store.UpdateResult, ok bool) {
	t.Helper()
	db := st.View().DB
	ids := make([]int, 0, db.NumNodes())
	db.EachNode(func(id int) { ids = append(ids, id) })
	u, ok := rec.Update(src, ids, db.Labels)
	if !ok {
		return ur, false
	}
	var err error
	switch u.Op {
	case difftest.Insert:
		ur, err = st.InsertSubtree(u.Node, u.Fragment)
	case difftest.Delete:
		ur, err = st.DeleteSubtree(u.Node)
	default:
		ur, err = st.UpdateText(u.Node, u.Value)
	}
	if err != nil {
		t.Fatalf("%+v on a %s: %v", u, db.Labels[u.Node], err)
	}
	return ur, true
}

// eventAtEpoch reads events until the one for the given epoch arrives (the
// hub publishes every epoch to every view, in order).
func eventAtEpoch(t *testing.T, sub *xpath2sql.WatchSubscription, epoch uint64) xpath2sql.WatchEvent {
	t.Helper()
	for {
		ev := nextEvent(t, sub)
		if ev.Epoch == epoch {
			return ev
		}
		if ev.Epoch > epoch {
			t.Fatalf("event for epoch %d skipped past %d: %+v", epoch, ev.Epoch, ev)
		}
	}
}

// TestDifferentialMaintenance is the randomized differential property test:
// maintained answers ≡ full re-execution after arbitrary update sequences
// over random recursive DTDs, through the real store — under the default
// strategy (CycleEX, whose descendant steps are interval scans), and under
// CycleE (fixpoints throughout) and SQLGen-R (one multi-relation recursion per
// query, which no delta rule covers).
func TestDifferentialMaintenance(t *testing.T) {
	differentialMaintenance(t)
	t.Run("E", func(t *testing.T) { differentialMaintenance(t, xpath2sql.WithStrategy(xpath2sql.StrategyCycleE)) })
	t.Run("R", func(t *testing.T) { differentialMaintenance(t, xpath2sql.WithStrategy(xpath2sql.StrategySQLGenR)) })
}

func differentialMaintenance(t *testing.T, opts ...xpath2sql.EngineOption) {
	seeds := []int64{11, 22, 33}
	updatesPerRun := 25
	queriesPerRun := 8
	if testing.Short() {
		seeds, updatesPerRun, queriesPerRun = seeds[:1], 10, 4
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			rec := difftest.RecDTD(difftest.Seed(seed))
			stats := checkMaintenance(t, rec, seed+1, difftest.Seed(seed*7919), queriesPerRun, updatesPerRun, opts...)
			if stats.Maintained+stats.Reruns == 0 {
				t.Fatal("no maintenance happened — the suite tested nothing")
			}
			t.Logf("dtd seed %d: maintained=%d reruns=%d %+v", seed, stats.Maintained, stats.Reruns, stats.RerunsByReason)
		})
	}
}

// FuzzDifferentialMaintenance is TestDifferentialMaintenance on the
// instances the fuzzer's bytes decode to: a recursive DTD, a document, a
// strategy, standing queries and updates. The strategy is CycleEX or
// SQLGen-R: CycleE's programs grow exponentially with the query and the
// cycles of the DTD, and the seeded suite runs it.
func FuzzDifferentialMaintenance(f *testing.F) {
	f.Add([]byte{0, 1, 0})
	f.Add([]byte{1, 3, 2, 1, 0, 1, 2, 9, 1, 0, 3, 2, 2, 5, 1, 1, 3})
	f.Fuzz(func(t *testing.T, b []byte) {
		src := difftest.FromBytes(b)
		rec := difftest.RecDTD(src)
		docSeed := int64(src.Intn(256))
		strategy := []xpath2sql.Strategy{xpath2sql.StrategyCycleEX, xpath2sql.StrategySQLGenR}[src.Intn(2)]
		checkMaintenance(t, rec, docSeed, src, 2, 4, xpath2sql.WithStrategy(strategy))
	})
}

// checkMaintenance registers standing queries over a document of rec (xmlgen
// seed docSeed) in a store, applies the drawn updates, and checks every view
// against full re-execution after each. It returns the hub's counters.
func checkMaintenance(t *testing.T, rec difftest.Rec, docSeed int64, r difftest.Source, queriesPerRun, updatesPerRun int, opts ...xpath2sql.EngineOption) obs.WatchStats {
	t.Helper()
	d := rec.DTD
	if err := d.Check(); err != nil {
		t.Fatalf("invalid DTD: %v", err)
	}
	db, err := xpath2sql.Shred(difftest.Doc(t, d, docSeed, 200), d)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.Config{DTD: d, Seed: db, Fsync: store.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	e := xpath2sql.New(d, opts...)
	h, err := e.NewWatchHub(st, xpath2sql.WatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)

	// Register random standing queries; untranslatable draws (the
	// generator can produce paths the DTD graph makes empty in ways
	// the translator rejects) are skipped, not errors, and a hundred of
	// them end the search.
	type watched struct {
		q   string
		sub *xpath2sql.WatchSubscription
		ids []int
	}
	var views []*watched
	for tries := 0; len(views) < queriesPerRun && tries < 100; tries++ {
		q := difftest.QueryString(r, rec.Types)
		sub, err := h.Watch(context.Background(), q)
		if err != nil {
			continue
		}
		w := &watched{q: q, sub: sub}
		snap := nextEvent(t, w.sub)
		if snap.Type != xpath2sql.WatchSnapshot {
			t.Fatalf("%s: first event %+v, want snapshot", q, snap)
		}
		w.ids = applyEvent(t, nil, snap)
		if want := fullAnswer(t, e, st, q); !slices.Equal(w.ids, want) {
			t.Fatalf("%s: snapshot %v, want %v", q, w.ids, want)
		}
		views = append(views, w)
	}
	t.Cleanup(func() {
		for _, w := range views {
			w.sub.Close()
		}
	})

	for i := 0; i < updatesPerRun; i++ {
		ur, ok := randUpdate(t, r, st, rec)
		if !ok {
			continue
		}
		for _, w := range views {
			ev := eventAtEpoch(t, w.sub, ur.Epoch)
			w.ids = applyEvent(t, w.ids, ev)
			if want := fullAnswer(t, e, st, w.q); !slices.Equal(w.ids, want) {
				t.Fatalf("update %d (epoch %d): %s maintained %v, full re-execution %v",
					i, ur.Epoch, w.q, w.ids, want)
			}
			heldKeys(t, e, st, w.q)
		}
	}

	stats := h.Stats()
	// A view reruns because its plan is not monotone or because a text
	// update reached a value selection — every view here was registered
	// before the first update, so not for an epoch gap — and never
	// because a delta failed: no insert or delete on a monotone plan
	// reran.
	by := stats.RerunsByReason
	if by.Error != 0 || by.EpochGap != 0 || by.NonMonotone+by.Text != stats.Reruns {
		t.Fatalf("reruns=%d by reason %+v: want non-monotone plans and text updates only", stats.Reruns, by)
	}
	return stats
}

// heldKeys runs every operator of q's program, one at a time, on st's current
// epoch and checks that its rows hold the keys the plan derives for it
// (ra.Keys), on which the executor and the SQL renderer skip dedup: no (F, T)
// pair twice; no F, no T twice where keyed on it; F the parent of T on an
// edge, T or an ancestor of T going down; T a node of the type's relation.
func heldKeys(t *testing.T, e *xpath2sql.Engine, st *store.Store, q string) {
	t.Helper()
	tr, err := e.TranslateString(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	p, db := tr.Program(), st.View().DB
	var check func(pl ra.Plan)
	check = func(pl ra.Plan) {
		for _, k := range ra.Inputs(pl) {
			check(k)
		}
		alone := &ra.Program{Stmts: append(slices.Clip(p.Stmts), ra.Stmt{Name: "\x00op", Plan: pl}), Result: "\x00op", DTDFP: p.DTDFP}
		alone.StampKeys()
		rel, err := rdb.NewExec(db).Run(alone)
		if err != nil {
			t.Fatalf("%s: %s: %v", q, pl, err)
		}
		k := p.KeysOf(pl)
		pairs, fs, ts := map[[2]int]bool{}, map[int]bool{}, map[int]bool{}
		for _, w := range rel.Tuples() {
			up := w.T
			for up != 0 && up != w.F {
				up = db.Parent(up)
			}
			msg := ""
			switch {
			case pairs[[2]int{w.F, w.T}]:
				msg = "the pair twice"
			case k.KeyedF && fs[w.F]:
				msg = "F twice, keyed on F"
			case k.KeyedT && ts[w.T]:
				msg = "T twice, keyed on T"
			case k.Edge && db.Parent(w.T) != w.F:
				msg = "F not T's parent, an edge"
			case k.Down && up != w.F:
				msg = "F not T or above it, going down"
			case k.Type != "" && !db.Rel(k.Type).Has(db.Parent(w.T), w.T):
				msg = "T not a node of " + k.Type
			}
			if msg != "" {
				t.Fatalf("%s: %s holds (%d, %d): %s (keys %+v)", q, pl, w.F, w.T, msg, k)
			}
			pairs[[2]int{w.F, w.T}], fs[w.F], ts[w.T] = true, true, true
		}
	}
	for _, s := range p.Stmts {
		check(s.Plan)
	}
}

// TestDifferentialRecovery: updates through a durable store, an unclean
// stop (the store is abandoned without Close, as a kill -9 would), then
// reopen + WAL replay, re-register the views — every snapshot must match
// full re-execution on the recovered state.
func TestDifferentialRecovery(t *testing.T) {
	rec := difftest.RecDTD(difftest.Seed(77))
	d, r := rec.DTD, difftest.Seed(77*7919)
	db, err := xpath2sql.Shred(difftest.Doc(t, d, 78, 150), d)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := store.Open(store.Config{DTD: d, Seed: db, Dir: dir, Fsync: store.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	e := xpath2sql.New(d)
	h, err := e.NewWatchHub(st, xpath2sql.WatchConfig{})
	if err != nil {
		t.Fatal(err)
	}

	queries := make([]string, 0, 4)
	for len(queries) < 4 {
		q := difftest.QueryString(r, rec.Types)
		sub, err := h.Watch(context.Background(), q)
		if err != nil {
			continue
		}
		nextEvent(t, sub) // snapshot; keep the view maintained during writes
		queries = append(queries, q)
	}
	var lastEpoch uint64
	for i := 0; i < 15; i++ {
		if ur, ok := randUpdate(t, r, st, rec); ok {
			lastEpoch = ur.Epoch
		}
	}
	// Give the maintainer a chance to drain, then abandon everything
	// without Close — WAL state on disk is all that survives, exactly as
	// after a kill -9.
	deadline := time.Now().Add(10 * time.Second)
	for h.Stats().DeltasPublished < int64(lastEpoch) {
		if time.Now().After(deadline) {
			t.Fatalf("maintainer stalled: %+v", h.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	answers := make(map[string][]int, len(queries))
	for _, q := range queries {
		answers[q] = fullAnswer(t, e, st, q)
	}

	st2, err := store.Open(store.Config{DTD: d, Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	t.Cleanup(func() { st2.Close() })
	if got := st2.View().Seq; got != lastEpoch {
		t.Fatalf("recovered epoch %d, want %d", got, lastEpoch)
	}
	h2, err := e.NewWatchHub(st2, xpath2sql.WatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h2.Close)
	for _, q := range queries {
		sub, err := h2.Watch(context.Background(), q)
		if err != nil {
			t.Fatalf("re-register %s: %v", q, err)
		}
		snap := nextEvent(t, sub)
		got := applyEvent(t, nil, snap)
		if !slices.Equal(got, answers[q]) {
			t.Fatalf("%s after recovery: %v, want %v", q, got, answers[q])
		}
		if want := fullAnswer(t, e, st2, q); !slices.Equal(got, want) {
			t.Fatalf("%s: recovered snapshot %v, full re-execution %v", q, got, want)
		}
		sub.Close()
	}
}
