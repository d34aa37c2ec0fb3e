package cluster

import (
	"slices"
	"sort"
	"sync"
)

// directory maps node-ID ranges to owning shards. The seed collection
// contributes one coalesced run per stretch of consecutively-placed nodes
// (documents shredded in sequence are contiguous preorder ID ranges), and
// every routed insert adds its freshly allocated [base, base+n) range.
// Deletions leave entries behind; a lookup that lands on a deleted node is
// answered by the owning shard's own catalog (ErrUnknownNode), so staleness
// costs one hop, never correctness.
type directory struct {
	mu     sync.RWMutex
	ranges []dirRange // sorted by lo, non-overlapping
}

// dirRange is one half-open ID range [lo, hi) owned by a shard.
type dirRange struct {
	lo, hi int
	shard  int
}

// buildDirectory indexes an ID→shard assignment as coalesced sorted ranges.
func buildDirectory(owner map[int]int) *directory {
	ids := make([]int, 0, len(owner))
	for id := range owner {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	d := &directory{}
	for _, id := range ids {
		sh := owner[id]
		if n := len(d.ranges); n > 0 && d.ranges[n-1].hi == id && d.ranges[n-1].shard == sh {
			d.ranges[n-1].hi = id + 1
			continue
		}
		d.ranges = append(d.ranges, dirRange{lo: id, hi: id + 1, shard: sh})
	}
	return d
}

// owner returns the shard owning the node ID.
func (d *directory) owner(id int) (int, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	i := sort.Search(len(d.ranges), func(i int) bool { return d.ranges[i].hi > id })
	if i < len(d.ranges) && d.ranges[i].lo <= id {
		return d.ranges[i].shard, true
	}
	return 0, false
}

// add records a freshly allocated range [lo, hi) on the shard, coalescing
// with an adjacent same-shard range below it. A range already routed — inside
// the static range Connect seeds for the shard that allocated it — adds
// nothing.
func (d *directory) add(lo, hi, shard int) {
	if hi <= lo {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	i := sort.Search(len(d.ranges), func(i int) bool { return d.ranges[i].hi > lo })
	if i < len(d.ranges) && d.ranges[i].lo <= lo {
		return
	}
	if i > 0 && d.ranges[i-1].hi == lo && d.ranges[i-1].shard == shard {
		d.ranges[i-1].hi = hi
		return
	}
	d.ranges = slices.Insert(d.ranges, i, dirRange{lo: lo, hi: hi, shard: shard})
}
