package ivm_test

import (
	"bytes"
	"context"
	"slices"
	"strconv"
	"testing"

	"xpath2sql"
	"xpath2sql/internal/ivm"
	"xpath2sql/internal/rdb"
	"xpath2sql/internal/store"
	"xpath2sql/internal/workload"
)

// TestViewMaintenanceIsTheUpdatesOwn is the counted proof, at the seam between
// the store and the views, that maintaining a standing view costs what the
// update touches and not what the document holds — sibling of the store's
// TestCatalogWritesAreTheUpdatesOwn. The benchmark's six standing queries are
// advanced by hand, the way the hub does it, over the same stream of course
// inserts and deletes at 1×, 4× and 16× the dept document: every update is a
// delta to every view (the hub would count no rerun), the operator tuples a
// view produces are the same update for update at the three sizes, and no
// materialization builds an index once the first insert and delete have probed
// it — a delete's compaction carries them.
func TestViewMaintenanceIsTheUpdatesOwn(t *testing.T) {
	queries := []string{
		"dept//project", "dept//course", "dept//student", "dept//cno",
		"dept/course/prereq/course", "dept//student[qualified//course]",
	}
	fragment := func(i int) string {
		tag := strconv.Itoa(i)
		return "<course><cno>" + tag + "</cno><title>t</title><prereq></prereq><takenBy></takenBy>" +
			"<project><pno>p" + tag + "</pno><ptitle>pt</ptitle><required></required></project></course>"
	}
	d, err := xpath2sql.ParseDTD(workload.DeptText)
	if err != nil {
		t.Fatal(err)
	}
	e := xpath2sql.New(d)
	ctx := context.Background()
	var streams [][]int
	for _, scale := range []int{1, 4, 16} {
		var text bytes.Buffer
		if _, err := xpath2sql.StreamGenerate(&text, d, xpath2sql.GenStreamOptions{
			XL: 8, XR: 4, Seed: 19, TargetBytes: int64(20_000 * scale),
		}); err != nil {
			t.Fatal(err)
		}
		doc, err := xpath2sql.ParseXML(text.String())
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
		var td store.TxnDelta
		st.SetOnApply(func(d store.TxnDelta) { td = d })
		var views []*rdb.ViewState
		for _, q := range queries {
			p, err := e.PrepareString(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			vs, err := rdb.BuildViewState(st.View().DB, p.Program())
			if err != nil || !vs.Insertable() || !vs.Deletable() {
				t.Fatalf("%s: err=%v insertable=%v deletable=%v", q, err, vs.Insertable(), vs.Deletable())
			}
			views = append(views, vs)
		}
		var tuples []int
		var pending []int
		builds := func() (n int) {
			for _, vs := range views {
				n += vs.IndexBuilds()
			}
			return n
		}
		warm := 0
		for i := 0; i < 60; i++ {
			if i == 2 {
				warm = builds() // one insert and one delete have probed what there is to probe
			}
			if i%2 == 0 {
				ur, err := st.InsertSubtree(1, fragment(i))
				if err != nil {
					t.Fatal(err)
				}
				pending = append(pending, ur.NodeID)
			} else {
				if _, err := st.DeleteSubtree(pending[0]); err != nil {
					t.Fatal(err)
				}
				pending = pending[1:]
			}
			for vi, vs := range views {
				before := vs.DeltaStats.TuplesOut
				if td.Op == store.OpInsert {
					_, err = vs.ApplyInsert(td.DB, ivm.BaseDeltaOf(td))
				} else {
					_, err = vs.ApplyDelete(td.DB, td.Prev, td.Root, td.Deleted)
				}
				if err != nil {
					t.Fatalf("%dx: update %d (%s) is no delta to %s: %v", scale, i, td.Op, queries[vi], err)
				}
				tuples = append(tuples, vs.DeltaStats.TuplesOut-before)
			}
		}
		if now := builds(); now != warm {
			t.Errorf("%dx: the views built %d indexes after the first insert and delete; want every one carried", scale, now-warm)
		}
		for vi, vs := range views {
			if want := fullAnswer(t, e, st, queries[vi]); !slices.Equal(vs.AnswerIDs(), want) {
				t.Fatalf("%dx: %s maintained %d answers, a fresh run has %d", scale, queries[vi], len(vs.AnswerIDs()), len(want))
			}
		}
		t.Logf("%dx: %d nodes, %d index builds in all", scale, st.View().DB.NumNodes(), warm)
		streams = append(streams, tuples)
		st.Close()
	}
	for i, stream := range streams[1:] {
		if !slices.Equal(stream, streams[0]) {
			t.Errorf("tuples per view and update differ between 1x and %dx the document:\n%v\n%v", []int{4, 16}[i], streams[0], stream)
		}
	}
	total := 0
	for _, n := range streams[0] {
		total += n
	}
	if total == 0 {
		t.Fatal("the stream produced no tuples — the test counted nothing")
	}
	t.Logf("%d applies produced %d operator tuples at every scale", len(streams[0]), total)
}
