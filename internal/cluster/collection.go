package cluster

import (
	"fmt"

	"xpath2sql/internal/dtd"
	"xpath2sql/internal/rdb"
	"xpath2sql/internal/shred"
)

// BuildCollection merges independently shredded documents into one collection
// database: document i's dense preorder IDs are shifted by the running node
// count, every document root keeps the virtual root (ID 0) as parent, and
// relations/catalogs are rebuilt through a bulk loader. The result is exactly
// what shredding a concatenated multi-root collection would produce, and it
// is the single-store oracle the cluster differential suite compares against.
func BuildCollection(d *dtd.DTD, docs []*rdb.DB) (*rdb.DB, error) {
	out := rdb.NewDB()
	for _, typ := range d.Types() {
		out.Rel(shred.RelName(typ))
	}
	ld := out.NewLoader()
	offset := 0
	for di, doc := range docs {
		ids := sortedNodeIDs(doc)
		for _, id := range ids {
			label, ok := doc.Label(id)
			if !ok {
				return nil, fmt.Errorf("cluster: document %d node %d has no label (was it built by Shred?)", di, id)
			}
			f := doc.Parent(id)
			if f != 0 {
				f += offset
			}
			ld.Insert(shred.RelName(label), label, f, id+offset, doc.Val(id))
		}
		offset += len(ids)
	}
	out.RebuildIntervals()
	out.DTDFP = d.Fingerprint()
	return out, nil
}

// SplitCollection partitions a collection database into per-shard databases
// under the placement: each node follows its document root, node IDs are
// preserved verbatim (per-shard answers union into exactly the collection's
// answer), and the returned assignment maps every node ID to its shard.
func SplitCollection(d *dtd.DTD, collection *rdb.DB, shards int, p Placement) ([]*rdb.DB, map[int]int, error) {
	if shards < 1 {
		shards = 1
	}
	if p == nil {
		p = HashPlacement{}
	}
	parts := make([]*rdb.DB, shards)
	loaders := make([]*rdb.Loader, shards)
	for i := range parts {
		parts[i] = rdb.NewDB()
		for _, typ := range d.Types() {
			parts[i].Rel(shred.RelName(typ))
		}
		loaders[i] = parts[i].NewLoader()
	}

	owner := make(map[int]int, collection.NumNodes())
	rootOf := make(map[int]int, collection.NumNodes())
	ids := sortedNodeIDs(collection)
	for _, id := range ids {
		root, err := docRootOf(collection, id, rootOf)
		if err != nil {
			return nil, nil, err
		}
		sh := p.Owner(root, shards)
		if sh < 0 || sh >= shards {
			return nil, nil, fmt.Errorf("cluster: placement %s put document %d on shard %d of %d", p.Name(), root, sh, shards)
		}
		owner[id] = sh
		label, ok := collection.Label(id)
		if !ok {
			return nil, nil, fmt.Errorf("cluster: node %d has no label in the collection catalog", id)
		}
		loaders[sh].Insert(shred.RelName(label), label, collection.Parent(id), id, collection.Val(id))
	}
	for i := range parts {
		parts[i].RebuildIntervals()
		parts[i].DTDFP = d.Fingerprint()
	}
	return parts, owner, nil
}

// Rebase shifts every node ID in a shredded database by base (document roots
// keep the virtual root as parent). A fleet of xpathd shard processes booted
// with disjoint bases occupies disjoint global ID ranges, which is what makes
// the network router's sorted-union merge correct; cmd/xpathd exposes it as
// -node-id-base.
func Rebase(d *dtd.DTD, db *rdb.DB, base int) (*rdb.DB, error) {
	if base <= 0 {
		return db, nil
	}
	out := rdb.NewDB()
	for _, typ := range d.Types() {
		out.Rel(shred.RelName(typ))
	}
	ld := out.NewLoader()
	for _, id := range sortedNodeIDs(db) {
		label, ok := db.Label(id)
		if !ok {
			return nil, fmt.Errorf("cluster: node %d has no label in the catalog (was it built by Shred?)", id)
		}
		f := db.Parent(id)
		if f != 0 {
			f += base
		}
		ld.Insert(shred.RelName(label), label, f, id+base, db.Val(id))
	}
	out.RebuildIntervals()
	out.DTDFP = db.DTDFP
	return out, nil
}

// docRootOf walks the catalog's parents up to the document root (the ancestor
// whose parent is the virtual root), memoizing every node on the path.
func docRootOf(db *rdb.DB, id int, memo map[int]int) (int, error) {
	var path []int
	cur := id
	for {
		if r, ok := memo[cur]; ok {
			for _, n := range path {
				memo[n] = r
			}
			return r, nil
		}
		if !db.HasNode(cur) {
			return 0, fmt.Errorf("cluster: node %d has no parent entry in the catalog", cur)
		}
		p := db.Parent(cur)
		if p == 0 {
			memo[cur] = cur
			for _, n := range path {
				memo[n] = cur
			}
			return cur, nil
		}
		path = append(path, cur)
		cur = p
	}
}

// sortedNodeIDs lists a database's node IDs ascending.
func sortedNodeIDs(db *rdb.DB) []int {
	ids := make([]int, 0, db.NumNodes())
	db.EachNode(func(id int) { ids = append(ids, id) })
	return ids
}
