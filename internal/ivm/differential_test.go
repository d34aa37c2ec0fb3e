package ivm_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"xpath2sql"
	"xpath2sql/internal/dtd"
	"xpath2sql/internal/ra"
	"xpath2sql/internal/rdb"
	"xpath2sql/internal/store"
	"xpath2sql/internal/xmlgen"
)

// The randomized differential suite: for random recursive DTDs and random
// queries of the paper's fragment, a set of standing views maintained
// through the real store (WAL, epochs, the hub's maintenance matrix —
// insert and delete deltas, rebuild fallback) must track full re-execution
// exactly across arbitrary update sequences, under each translation strategy,
// and fall back only for the reasons the matrix names. Run
// under -race in CI, it also exercises the hub's maintainer goroutine
// against concurrent store writers.

// randRecDTD synthesizes a random recursive DTD: a chain t0 → t1 → … → tN
// closed into a cycle by a back edge, random chord edges, and text leaves.
// Every production is star-based, so any subset of a type's children — and
// in particular the empty element — is a valid instance, which makes random
// fragment generation trivially DTD-valid.
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
	// Dedup the kids lists the same way the productions were deduped, so
	// fragment generation only draws allowed children.
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

// randQueryStr builds a random query string of the paper's fragment over
// the DTD's element types: child and descendant steps, wildcards, and
// qualifiers (nested paths, negation, text tests). Positive qualifiers compile
// to semijoins, which deltas maintain; negation compiles to antijoins, whose
// views fall back to rebuild — both maintenance paths end up covered.
func randQueryStr(r *rand.Rand, types []string) string {
	pick := func() string { return types[r.Intn(len(types))] }
	var b strings.Builder
	b.WriteString("doc")
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

// randFragment generates a DTD-valid XML fragment of the given type: every
// production is star-based, so any recursive expansion over the allowed
// child lists validates.
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

// liveNodes returns the store's current node IDs, sorted, with their labels.
func liveNodes(st *store.Store) ([]int, map[int]string) {
	db := st.View().DB
	ids := make([]int, 0, len(db.Labels))
	for id := range db.Labels {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids, db.Labels
}

// randUpdate applies one random update through the store: an insert of a
// random valid fragment under a random interior node, a delete of a random
// non-root subtree, or a text update of a random leaf. It reports the epoch
// to wait for, or ok=false when no target exists (e.g. nothing deletable).
func randUpdate(t *testing.T, r *rand.Rand, st *store.Store, kids map[string][]string) (store.UpdateResult, bool) {
	t.Helper()
	ids, labels := liveNodes(st)
	switch r.Intn(4) {
	case 0, 1: // insert twice as often: it keeps the document from draining
		var parents []int
		for _, id := range ids {
			if len(kids[labels[id]]) > 0 {
				parents = append(parents, id)
			}
		}
		if len(parents) == 0 {
			return store.UpdateResult{}, false
		}
		p := parents[r.Intn(len(parents))]
		ks := kids[labels[p]]
		frag := randFragment(r, kids, ks[r.Intn(len(ks))], 2)
		ur, err := st.InsertSubtree(p, frag)
		if err != nil {
			t.Fatalf("insert %q under %d (%s): %v", frag, p, labels[p], err)
		}
		return ur, true
	case 2:
		var cands []int
		for _, id := range ids {
			if labels[id] != "doc" {
				cands = append(cands, id)
			}
		}
		if len(cands) == 0 {
			return store.UpdateResult{}, false
		}
		ur, err := st.DeleteSubtree(cands[r.Intn(len(cands))])
		if err != nil {
			t.Fatalf("delete: %v", err)
		}
		return ur, true
	default:
		var leafIDs []int
		for _, id := range ids {
			if l := labels[id]; l == "val" || l == "tag" {
				leafIDs = append(leafIDs, id)
			}
		}
		if len(leafIDs) == 0 {
			return store.UpdateResult{}, false
		}
		id := leafIDs[r.Intn(len(leafIDs))]
		ur, err := st.UpdateText(id, fmt.Sprintf("%s-%d", labels[id], r.Intn(5)))
		if err != nil {
			t.Fatalf("update text: %v", err)
		}
		return ur, true
	}
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
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			d, kids, types := randRecDTD(seed)
			if err := d.Check(); err != nil {
				t.Fatalf("invalid DTD: %v", err)
			}
			r := rand.New(rand.NewSource(seed * 7919))
			doc, err := xmlgen.Generate(d, xmlgen.Options{
				XL: 6, XR: 3, Seed: seed + 1, MaxNodes: 200,
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
			// the translator rejects) are skipped, not errors.
			type watched struct {
				q   string
				sub *xpath2sql.WatchSubscription
				ids []int
			}
			var views []*watched
			for len(views) < queriesPerRun {
				q := randQueryStr(r, types)
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
				ur, ok := randUpdate(t, r, st, kids)
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
			if stats.Maintained+stats.Reruns == 0 {
				t.Fatal("no maintenance happened — the suite tested nothing")
			}
			// A view reruns because its plan is not monotone or because a text
			// update reached a value selection — every view here was registered
			// before the first update, so not for an epoch gap — and never
			// because a delta failed: no insert or delete on a monotone plan
			// reran.
			by := stats.RerunsByReason
			if by.Error != 0 || by.EpochGap != 0 || by.NonMonotone+by.Text != stats.Reruns {
				t.Fatalf("reruns=%d by reason %+v: want non-monotone plans and text updates only", stats.Reruns, by)
			}
			t.Logf("dtd seed %d: %d queries, maintained=%d reruns=%d %+v",
				seed, len(views), stats.Maintained, stats.Reruns, by)
		})
	}
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
	d, kids, types := randRecDTD(77)
	r := rand.New(rand.NewSource(77 * 7919))
	doc, err := xmlgen.Generate(d, xmlgen.Options{
		XL: 6, XR: 3, Seed: 78, MaxNodes: 150,
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
		q := randQueryStr(r, types)
		sub, err := h.Watch(context.Background(), q)
		if err != nil {
			continue
		}
		nextEvent(t, sub) // snapshot; keep the view maintained during writes
		queries = append(queries, q)
	}
	var lastEpoch uint64
	for i := 0; i < 15; i++ {
		if ur, ok := randUpdate(t, r, st, kids); ok {
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
