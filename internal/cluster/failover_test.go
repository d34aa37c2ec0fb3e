package cluster_test

import (
	"context"
	"errors"
	"slices"
	"testing"

	"xpath2sql"
	"xpath2sql/internal/cluster"
	"xpath2sql/internal/store"
)

// openTestCluster builds a random 3-document collection over a fixed random
// recursive DTD, splits it across the given shard count and returns the
// cluster plus a single-store oracle and a translated query with a non-empty
// answer.
func openTestCluster(t *testing.T, shards, replicas int, mode cluster.ReadMode) (*cluster.Cluster, *store.Store, *xpath2sql.Translation) {
	t.Helper()
	d, _, types := randRecDTD(41)
	collection := randCollection(t, d, 42, 4)
	c, err := cluster.Open(cluster.Config{
		DTD: d, Shards: shards, Replicas: replicas, Mode: mode,
		Placement: cluster.RoundRobinPlacement{},
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
	tr, err := e.TranslateString(context.Background(), "doc//"+types[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(oracleAnswer(t, tr, st)) == 0 {
		t.Fatal("probe query answered empty; the failover test would prove nothing")
	}
	return c, st, tr
}

// TestFailoverToReplica: after a primary is killed, reads fail over to its
// replica and still serve the complete, update-inclusive answer — not a
// degraded one — while writes to the dead shard fail with ErrShardDown.
func TestFailoverToReplica(t *testing.T) {
	c, st, tr := openTestCluster(t, 3, 1, cluster.ReadStrict)
	ctx := context.Background()

	// Land one insert on every shard so each replica has applied shipped WAL
	// records before the kill (document roots round-robin across shards).
	d := st.View().DB
	var roots []int
	d.EachNode(func(id int) {
		if d.Parent(id) == 0 {
			roots = append(roots, id)
		}
	})
	// Every randRecDTD document admits <t0> under its root (kids["doc"] is
	// exactly {t0}, star-quantified).
	const frag = "<t0></t0>"
	for _, root := range roots {
		if _, err := c.Update(ctx, cluster.UpdateRequest{Op: store.OpInsert, Parent: root, Fragment: frag}); err != nil {
			t.Fatalf("insert under root %d: %v", root, err)
		}
		if _, err := st.InsertSubtree(root, frag); err != nil {
			t.Fatal(err)
		}
	}
	waitReplication(t, c)
	want := oracleAnswer(t, tr, st)

	// Kill the shard that owns the first document, so the victim is
	// guaranteed to hold data and reject writes below.
	victim := (cluster.RoundRobinPlacement{}).Owner(roots[0], c.Shards())
	c.Shard(victim).KillPrimary()
	if !c.Shard(victim).Down() {
		t.Fatal("KillPrimary did not mark the shard down")
	}

	ans, err := c.Exec(ctx, tr.Program(), cluster.ExecOptions{})
	if err != nil {
		t.Fatalf("scatter after kill: %v", err)
	}
	if ans.Degraded {
		t.Fatalf("failover answer marked degraded: failed=%v", ans.Failed)
	}
	if !slices.Equal(ans.IDs, want) {
		t.Fatalf("failover answer %v, want %v", ans.IDs, want)
	}
	if ans.ReplicaReads == 0 {
		t.Fatal("no replica read recorded although a primary is down")
	}
	stats := c.Stats()
	if got := stats.Shards[victim]; !got.Down || got.Failovers == 0 {
		t.Fatalf("victim shard stats %+v, want Down with failovers", got)
	}

	// Writes to the downed shard are refused with the typed error; the other
	// shards keep accepting writes.
	deadRoot, liveRoot := -1, -1
	for _, root := range roots {
		sh := cluster.RoundRobinPlacement{}.Owner(root, c.Shards())
		if sh == victim && deadRoot < 0 {
			deadRoot = root
		}
		if sh != victim && liveRoot < 0 {
			liveRoot = root
		}
	}
	if _, err := c.Update(ctx, cluster.UpdateRequest{Op: store.OpInsert, Parent: deadRoot, Fragment: frag}); !errors.Is(err, cluster.ErrShardDown) {
		t.Fatalf("write to downed shard: err = %v, want ErrShardDown", err)
	}
	if liveRoot >= 0 {
		if _, err := c.Update(ctx, cluster.UpdateRequest{Op: store.OpInsert, Parent: liveRoot, Fragment: frag}); err != nil {
			t.Fatalf("write to healthy shard after unrelated kill: %v", err)
		}
	}
}

// TestDegradedModes: with no replicas, a killed shard makes the cluster
// behave per read mode — strict fails with ErrDegraded, quorum serves a
// degraded subset naming the missing shard, best-effort serves down to one
// survivor, and everything fails when nothing is left.
func TestDegradedModes(t *testing.T) {
	ctx := context.Background()

	t.Run("strict", func(t *testing.T) {
		c, _, tr := openTestCluster(t, 3, 0, cluster.ReadStrict)
		c.Shard(0).KillPrimary()
		if _, err := c.Exec(ctx, tr.Program(), cluster.ExecOptions{}); !errors.Is(err, cluster.ErrDegraded) {
			t.Fatalf("strict scatter with a dead shard: err = %v, want ErrDegraded", err)
		}
	})

	t.Run("quorum", func(t *testing.T) {
		c, st, tr := openTestCluster(t, 3, 0, cluster.ReadQuorum)
		want := oracleAnswer(t, tr, st)
		c.Shard(0).KillPrimary()
		ans, err := c.Exec(ctx, tr.Program(), cluster.ExecOptions{})
		if err != nil {
			t.Fatalf("quorum scatter with one dead shard: %v", err)
		}
		if !ans.Degraded || len(ans.Failed) != 1 || ans.Failed[0] != "shard0" {
			t.Fatalf("answer = degraded=%v failed=%v, want degraded naming shard0", ans.Degraded, ans.Failed)
		}
		// The degraded answer is exactly the full answer minus the dead
		// shard's documents.
		odb := st.View().DB
		expect := []int{}
		for _, id := range want {
			if (cluster.RoundRobinPlacement{}).Owner(oracleDocRoot(odb, id), 3) != 0 {
				expect = append(expect, id)
			}
		}
		if !slices.Equal(ans.IDs, expect) {
			t.Fatalf("degraded answer %v, want full minus shard0's documents %v", ans.IDs, expect)
		}
		// A second death breaks quorum (1 of 3 left).
		c.Shard(1).KillPrimary()
		if _, err := c.Exec(ctx, tr.Program(), cluster.ExecOptions{}); !errors.Is(err, cluster.ErrDegraded) {
			t.Fatalf("quorum scatter with majority dead: err = %v, want ErrDegraded", err)
		}
	})

	t.Run("best-effort", func(t *testing.T) {
		c, _, tr := openTestCluster(t, 3, 0, cluster.ReadBestEffort)
		c.Shard(0).KillPrimary()
		c.Shard(1).KillPrimary()
		ans, err := c.Exec(ctx, tr.Program(), cluster.ExecOptions{})
		if err != nil {
			t.Fatalf("best-effort with one survivor: %v", err)
		}
		if !ans.Degraded || len(ans.Failed) != 2 {
			t.Fatalf("answer = degraded=%v failed=%v, want degraded naming both dead shards", ans.Degraded, ans.Failed)
		}
		c.Shard(2).KillPrimary()
		if _, err := c.Exec(ctx, tr.Program(), cluster.ExecOptions{}); !errors.Is(err, cluster.ErrDegraded) {
			t.Fatalf("best-effort with nothing left: err = %v, want ErrDegraded", err)
		}
	})
}
