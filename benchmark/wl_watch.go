package main

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"time"

	"xpath2sql"
	"xpath2sql/internal/backend"
	"xpath2sql/internal/ivm"
	"xpath2sql/internal/ra"
	"xpath2sql/internal/rdb"
	"xpath2sql/internal/store"
)

// watchQueries are the standing views: the five of the old watch experiment
// (four descendant queries that rebuild on delete, one child-axis path that
// prunes) and one qualifier query.
var watchQueries = []string{
	"dept//project",
	"dept//course",
	"dept//student",
	"dept//cno",
	"dept/course/prereq/course",
	"dept//student[qualified//course]",
}

// standingView is one subscription and the answer the benchmark rebuilds
// from what it delivered: the snapshot with every delta applied.
type standingView struct {
	query string
	sub   *xpath2sql.WatchSubscription
	have  map[int]struct{}
}

// watchMaintain is the watch-maintain workload: standing views over a live
// store, driven at the library seam by one generator.
type watchMaintain struct {
	h     *harness
	data  *deptData
	st    *store.Store
	eng   *xpath2sql.Engine
	hub   *xpath2sql.WatchHub
	views []*standingView

	seq     int
	pending []int // inserted by this generator, not yet deleted
}

func buildWatchMaintain(h *harness) (instance, error) {
	data, err := buildDept(h.cfg.seed, h.deptElems())
	if err != nil {
		return nil, err
	}
	w := &watchMaintain{h: h, data: data, eng: engineDefaults(data.dtd)}
	if w.st, err = store.Open(store.Config{DTD: data.dtd, Seed: data.db}); err != nil {
		return nil, err
	}
	if w.hub, err = w.eng.NewWatchHub(w.st, xpath2sql.WatchConfig{}); err != nil {
		w.st.Close()
		return nil, err
	}
	ctx := context.Background()
	for _, q := range watchQueries {
		sub, err := w.hub.Watch(ctx, q)
		if err != nil {
			w.close()
			return nil, fmt.Errorf("watch %q: %w", q, err)
		}
		v := &standingView{query: q, sub: sub, have: map[int]struct{}{}}
		w.views = append(w.views, v)
		ev, err := sub.Next(ctx)
		if err != nil {
			w.close()
			return nil, err
		}
		if err := v.apply(ev); err != nil {
			w.close()
			return nil, err
		}
	}
	return w, nil
}

// apply folds one delivered event into the rebuilt answer.
func (v *standingView) apply(ev xpath2sql.WatchEvent) error {
	switch ev.Type {
	case xpath2sql.WatchSnapshot:
		v.have = make(map[int]struct{}, len(ev.IDs))
		for _, id := range ev.IDs {
			v.have[id] = struct{}{}
		}
	case xpath2sql.WatchDelta:
		for _, id := range ev.Removed {
			if _, ok := v.have[id]; !ok {
				return fmt.Errorf("%w: view %q epoch %d removes %d, which it never held", errWrongAnswer, v.query, ev.Epoch, id)
			}
			delete(v.have, id)
		}
		for _, id := range ev.Added {
			v.have[id] = struct{}{}
		}
	}
	return nil
}

// await reads the subscription until it has delivered epoch.
func (v *standingView) await(ctx context.Context, epoch uint64) error {
	for {
		ev, err := v.sub.Next(ctx)
		if err != nil {
			return err
		}
		if err := v.apply(ev); err != nil {
			return err
		}
		if ev.Epoch >= epoch {
			return nil
		}
	}
}

// nextUpdate alternates inserts and deletes: an insert of a small course
// under the document root, then the delete of the oldest subtree inserted.
func (w *watchMaintain) nextUpdate() updateOp {
	w.seq++
	if w.seq%2 == 0 && len(w.pending) > 0 {
		node := w.pending[0]
		w.pending = w.pending[1:]
		return updateOp{kind: updDelete, node: node}
	}
	return updateOp{kind: updInsert, parent: 1, fragment: courseFragment("w" + strconv.Itoa(w.seq))}
}

func applyUpdate(st *store.Store, u updateOp) (store.UpdateResult, error) {
	if u.kind == updDelete {
		return st.DeleteSubtree(u.node)
	}
	return st.InsertSubtree(u.parent, u.fragment)
}

// propagate applies one update and waits until every subscription has
// delivered its epoch: the time from the call to the last delivery.
func (w *watchMaintain) propagate(ctx context.Context) (time.Duration, error) {
	u := w.nextUpdate()
	t0 := time.Now()
	res, err := applyUpdate(w.st, u)
	if err != nil {
		return 0, err
	}
	for _, v := range w.views {
		if err := v.await(ctx, res.Epoch); err != nil {
			return time.Since(t0), err
		}
	}
	d := time.Since(t0)
	if u.kind == updInsert {
		w.pending = append(w.pending, res.NodeID)
	}
	return d, nil
}

func (w *watchMaintain) load(d, warm time.Duration) (*loadResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), w.h.cfg.deadline)
	defer cancel()
	for t0 := time.Now(); time.Since(t0) < warm; {
		if _, err := w.propagate(ctx); err != nil {
			return nil, err
		}
	}
	return timedLoop(ctx, d, opUpdate, w.propagate)
}

// verify compares, per view, the snapshot with all deltas applied against a
// fresh execution at the final epoch.
func (w *watchMaintain) verify() (checked, wrong int, err error) {
	ctx := context.Background()
	ep := w.st.View()
	snap := backend.AdoptDB(ep.DB, ep.Seq)
	for _, v := range w.views {
		p, err := w.eng.PrepareString(ctx, v.query)
		if err != nil {
			return checked, wrong, err
		}
		res, err := snap.Execute(ctx, p.Program(), backend.ExecOptions{Workers: 1})
		if err != nil {
			return checked, wrong, err
		}
		have := make([]int, 0, len(v.have))
		for id := range v.have {
			have = append(have, id)
		}
		sort.Ints(have)
		checked++
		if digestIDs(have) != digestIDs(res.IDs) {
			wrong++
			fmt.Fprintf(diag, "benchmark: view %q holds %d answers after its deltas, a fresh run at epoch %d has %d\n",
				v.query, len(have), ep.Seq, len(res.IDs))
		}
	}
	return checked, wrong, nil
}

func (w *watchMaintain) close() error {
	for _, v := range w.views {
		v.sub.Close()
	}
	w.views = nil
	if w.hub != nil {
		w.hub.Close()
		w.hub = nil
	}
	if w.st == nil {
		return nil
	}
	err := w.st.Close()
	w.st = nil
	return err
}

func (w *watchMaintain) trace(rec *recorder, m layerMetrics) error {
	ctx, cancel := context.WithTimeout(context.Background(), w.h.cfg.deadline)
	defer cancel()

	// The sample comes first, on the store as set-up left it, so the hub's
	// counters over it are exact counts that repeat on every run of a seed.
	n := w.h.sampleSize(traceSample)
	before := w.hub.Stats()
	var props []time.Duration
	for i := 0; i < n; i++ {
		d, err := w.propagate(ctx)
		if err != nil {
			return err
		}
		props = append(props, d)
	}
	after := w.hub.Stats()
	maintained, reruns := float64(after.Maintained-before.Maintained), float64(after.Reruns-before.Reruns)
	if maintained+reruns > 0 {
		m["ivm.maintained_share"] = maintained / (maintained + reruns)
	}
	m["ivm.maintained_tuples_per_update"] = float64(after.MaintainedTuples-before.MaintainedTuples) / float64(n)
	m["ivm.rerun_tuples_per_update"] = float64(after.RerunTuples-before.RerunTuples) / float64(n)
	m["ivm.publish_p50_us"] = after.Propagation.Quantile(0.5) * 1e6
	m["ivm.shared_plans"] = float64(after.SharedPlans)

	lr, err := loadedCounters(m, func() (*loadResult, error) {
		return timedLoop(ctx, w.h.loadedPhase(), opUpdate, w.propagate)
	})
	if err != nil {
		return err
	}
	m["ivm.resyncs"] = float64(w.hub.Stats().Resyncs - before.Resyncs)
	plain := make([]time.Duration, len(lr.samples))
	for i, s := range lr.samples {
		plain[i] = s.lat
	}
	m["trace.overhead_share"] = overheadShare(props, plain)

	// The same update stream against a twin store without a hub, with each
	// view advanced by hand the way the hub does it, times the store and
	// the view maintenance apart.
	twinDB, err := xpath2sql.Shred(w.data.doc, w.data.dtd)
	if err != nil {
		return err
	}
	twin, err := store.Open(store.Config{DTD: w.data.dtd, Seed: twinDB})
	if err != nil {
		return err
	}
	defer twin.Close()
	var last store.TxnDelta
	twin.SetOnApply(func(td store.TxnDelta) { last = td })
	defer twin.SetOnApply(nil)

	var progs []*ra.Program
	var states []*rdb.ViewState
	var builds []time.Duration
	for _, q := range watchQueries {
		p, err := w.eng.PrepareString(ctx, q)
		if err != nil {
			return err
		}
		var vs *rdb.ViewState
		d, err := timed(func() (err error) { vs, err = rdb.BuildViewState(twin.View().DB, p.Program()); return err })
		if err != nil {
			return err
		}
		progs, states, builds = append(progs, p.Program()), append(states, vs), append(builds, d)
	}
	m["rdb.view_build_us"] = medianUS(builds)

	gen := &watchMaintain{}
	var inserts, deletes, reruns2 []time.Duration
	for i := 0; i < n; i++ {
		u := gen.nextUpdate()
		var res store.UpdateResult
		upd, err := timed(func() (err error) { res, err = applyUpdate(twin, u); return err })
		if err != nil {
			return err
		}
		if u.kind == updInsert {
			gen.pending = append(gen.pending, res.NodeID)
		}
		td := last
		var maintain time.Duration
		for vi, vs := range states {
			d, err := timed(func() error { return advanceView(vs, td) })
			if err != nil {
				return err
			}
			maintain += d
			if u.kind == updInsert {
				inserts = append(inserts, d)
			} else {
				deletes = append(deletes, d)
			}
			snap := backend.AdoptDB(td.DB, td.Epoch)
			var fresh *backend.Result
			d, err = timed(func() (err error) {
				fresh, err = snap.Execute(ctx, progs[vi], backend.ExecOptions{Workers: 1})
				return err
			})
			if err != nil {
				return err
			}
			reruns2 = append(reruns2, d)
			if digestIDs(vs.AnswerIDs()) != digestIDs(fresh.IDs) {
				return fmt.Errorf("%w: view %q after update %d differs from a fresh run", errWrongAnswer, watchQueries[vi], i)
			}
		}
		t := rec.op("watch.propagate", props[i])
		t.child("watch.propagate", "store.update", upd)
		t.child("watch.propagate", "rdb.view_maintain", maintain)
	}
	m["rdb.view_insert_us"] = medianUS(inserts)
	m["rdb.view_delete_us"] = medianUS(deletes)
	m["rdb.full_rerun_us"] = medianUS(reruns2)
	m["trace.unattributed_share"] = rec.unattributedShare()
	return nil
}

// advanceView moves one view across one update the way the hub's maintainer
// does: by delta when the plan allows it for this kind of update, by
// rebuild otherwise.
func advanceView(vs *rdb.ViewState, td store.TxnDelta) error {
	err := rdb.ErrNonIncremental
	switch {
	case td.Op == store.OpInsert && vs.Insertable():
		_, err = vs.ApplyInsert(td.DB, ivm.BaseDeltaOf(td))
	case td.Op == store.OpDelete && vs.Deletable():
		_, err = vs.ApplyDelete(td.DB, td.Prev, td.Root, td.Deleted)
	}
	if err != nil {
		_, _, err = vs.Rebuild(td.DB)
	}
	return err
}
