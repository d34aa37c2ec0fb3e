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
func openTestCluster(t *testing.T, shards int, mode cluster.ReadMode) (*cluster.Cluster, *store.Store, *xpath2sql.Translation) {
	t.Helper()
	d, _, types := randRecDTD(41)
	collection := randCollection(t, d, 42, 4)
	c, err := cluster.Open(cluster.Config{
		DTD: d, Shards: shards, Mode: mode,
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
		t.Fatal("probe query answered empty; the degraded-mode tests would prove nothing")
	}
	return c, st, tr
}

// TestDegradedModes: a killed shard makes the cluster behave per read mode —
// strict fails with ErrDegraded, quorum serves a degraded subset naming the
// missing shard, best-effort serves down to one survivor, and everything
// fails when nothing is left.
func TestDegradedModes(t *testing.T) {
	ctx := context.Background()

	t.Run("strict", func(t *testing.T) {
		c, _, tr := openTestCluster(t, 3, cluster.ReadStrict)
		c.Shard(0).Kill()
		if _, err := c.Exec(ctx, tr.Program(), cluster.ExecOptions{}); !errors.Is(err, cluster.ErrDegraded) {
			t.Fatalf("strict scatter with a dead shard: err = %v, want ErrDegraded", err)
		}
	})

	t.Run("quorum", func(t *testing.T) {
		c, st, tr := openTestCluster(t, 3, cluster.ReadQuorum)
		want := oracleAnswer(t, tr, st)
		c.Shard(0).Kill()
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
		c.Shard(1).Kill()
		if _, err := c.Exec(ctx, tr.Program(), cluster.ExecOptions{}); !errors.Is(err, cluster.ErrDegraded) {
			t.Fatalf("quorum scatter with majority dead: err = %v, want ErrDegraded", err)
		}
	})

	t.Run("best-effort", func(t *testing.T) {
		c, _, tr := openTestCluster(t, 3, cluster.ReadBestEffort)
		c.Shard(0).Kill()
		c.Shard(1).Kill()
		ans, err := c.Exec(ctx, tr.Program(), cluster.ExecOptions{})
		if err != nil {
			t.Fatalf("best-effort with one survivor: %v", err)
		}
		if !ans.Degraded || len(ans.Failed) != 2 {
			t.Fatalf("answer = degraded=%v failed=%v, want degraded naming both dead shards", ans.Degraded, ans.Failed)
		}
		c.Shard(2).Kill()
		if _, err := c.Exec(ctx, tr.Program(), cluster.ExecOptions{}); !errors.Is(err, cluster.ErrDegraded) {
			t.Fatalf("best-effort with nothing left: err = %v, want ErrDegraded", err)
		}
	})
}

// TestKilledShardRefusesWrites: a write routed to a killed shard fails with
// ErrShardDown, and the other shards keep accepting theirs.
func TestKilledShardRefusesWrites(t *testing.T) {
	c, _, _ := openTestCluster(t, 3, cluster.ReadQuorum)
	roots := c.DocRoots()
	// The owner of the first document, so the victim is sure to hold one.
	victim := (cluster.RoundRobinPlacement{}).Owner(roots[0], c.Shards())
	c.Shard(victim).Kill()
	accepted := 0
	for _, root := range roots {
		// Every randRecDTD document admits <t0> under its root (kids["doc"]
		// is exactly {t0}, star-quantified).
		_, err := c.Update(context.Background(), cluster.UpdateRequest{Op: store.OpInsert, Parent: root, Fragment: "<t0></t0>"})
		switch dead := (cluster.RoundRobinPlacement{}).Owner(root, c.Shards()) == victim; {
		case dead && !errors.Is(err, cluster.ErrShardDown):
			t.Fatalf("write to the killed shard%d: err = %v, want ErrShardDown", victim, err)
		case !dead && err != nil:
			t.Fatalf("write to a healthy shard after an unrelated kill: %v", err)
		case !dead:
			accepted++
		}
	}
	if accepted == 0 {
		t.Fatal("every document lives on the killed shard: no healthy shard was written to")
	}
}
